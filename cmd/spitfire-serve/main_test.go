package main

import (
	"bufio"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/spitfire-db/spitfire"
	"github.com/spitfire-db/spitfire/internal/cmdtest"
	"github.com/spitfire-db/spitfire/internal/harness"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestFlagParsingSmoke covers the exits that happen before the listener
// opens; tests/blackbox drives everything after it.
func TestFlagParsingSmoke(t *testing.T) {
	out, exit := cmdtest.Run(t, "-no-such-flag")
	if exit == 0 || !strings.Contains(out, "Usage of") {
		t.Errorf("bad flag exited %d, want non-zero with the usage text:\n%s", exit, out)
	}
	out, exit = cmdtest.Run(t, "-policy", "bogus")
	if exit == 0 || !strings.Contains(out, `unknown -policy "bogus" (lazy or eager)`) {
		t.Errorf("unknown -policy exited %d, want non-zero naming the accepted values:\n%s", exit, out)
	}
	out, exit = cmdtest.Run(t, "-h")
	if exit != 0 || !strings.Contains(out, "-policy") {
		t.Errorf("-h exited %d, want 0 with the flag list:\n%s", exit, out)
	}
}

var (
	servingRE        = regexp.MustCompile(`serving on (http://[^/\s]+)/`)
	cleanerBatchesRE = regexp.MustCompile(`(?m)^spitfire_cleaner_batches_total ([1-9]\d*)$`)
	walShardsRE      = regexp.MustCompile(`(?m)^spitfire_wal_shards (\d+)$`)
)

// TestServesTheFacadePosture: the binary runs the stack the facade builds —
// background cleaner on, WAL sharded as the facade recommends — so once a
// load outgrows -dram-mb 1 the cleaner families on /metrics move and the
// shard gauge reads RecommendedWALShards. A server that drifted back to a
// private assembly would read zero, or one, here.
func TestServesTheFacadePosture(t *testing.T) {
	cmd := cmdtest.Command("-addr", "127.0.0.1:0", "-dram-mb", "1", "-nvm-mb", "2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	// The first thing the server says is where it listens.
	line, err := bufio.NewReader(stderr).ReadString('\n')
	m := servingRE.FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("server did not report its address: %q (%v)", line, err)
	}
	base := m[1]

	res := harness.DriveLoad(harness.LoadOpts{
		BaseURL: base, Clients: 4, Ops: 10_000, Keys: 10_000, ReadFrac: 0.001, ValueSize: 200,
	})
	if res.OK < 9_000 {
		t.Fatalf("load did not go through: %s", res)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !cleanerBatchesRE.Match(scrape) {
		t.Fatalf("spitfire_cleaner_batches_total is not > 0 after %s; the binary is not running the facade posture", res)
	}
	want := strconv.Itoa(spitfire.RecommendedWALShards())
	if m := walShardsRE.FindSubmatch(scrape); m == nil || string(m[1]) != want {
		t.Fatalf("spitfire_wal_shards = %q, want RecommendedWALShards() = %s", m, want)
	}
}
