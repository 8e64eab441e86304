package main

import (
	"bufio"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/spitfire-db/spitfire"
	"github.com/spitfire-db/spitfire/internal/cmdtest"
	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/harness"
	"github.com/spitfire-db/spitfire/internal/obs"
	"github.com/spitfire-db/spitfire/internal/server"
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
	cleanerBatchNsRE = regexp.MustCompile(`(?m)^spitfire_cleaner_batch_ns_count ([1-9]\d*)$`)
	fetchNVMNsRE     = regexp.MustCompile(`(?m)^spitfire_fetch_nvm_ns_count ([1-9]\d*)$`)
	walShardsRE      = regexp.MustCompile(`(?m)^spitfire_wal_shards (\d+)$`)
)

// TestServesTheFacadePosture: the binary runs the stack its Spec describes —
// background cleaner on, WAL sharded as the facade recommends, the engine
// wired to the served Obs — so once a load outgrows -dram-mb 1 the cleaner
// families and the engine's latency histograms on /metrics move, and the
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

	// 10 k sequential 200-B PUTs: about 2 MiB of values, twice -dram-mb.
	val := strings.Repeat("v", 200)
	ok := 0
	for key := 0; key < 10_000; key++ {
		req, err := http.NewRequest(http.MethodPut, base+"/kv/put?key="+strconv.Itoa(key), strings.NewReader(val))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNoContent {
			ok++
		}
	}
	if ok < 9_000 {
		t.Fatalf("only %d of 10000 PUTs went through", ok)
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
		t.Fatal("spitfire_cleaner_batches_total is not > 0 after the load; the binary is not running the facade posture")
	}
	for name, re := range map[string]*regexp.Regexp{
		"spitfire_cleaner_batch_ns_count": cleanerBatchNsRE,
		"spitfire_fetch_nvm_ns_count":     fetchNVMNsRE,
	} {
		if !re.Match(scrape) {
			t.Errorf("%s is not > 0 after the load; the engine does not report into the served Obs", name)
		}
	}
	want := strconv.Itoa(spitfire.RecommendedWALShards())
	if m := walShardsRE.FindSubmatch(scrape); m == nil || string(m[1]) != want {
		t.Fatalf("spitfire_wal_shards = %q, want RecommendedWALShards() = %s", m, want)
	}
}

// TestServedSpecSharesDevices: the served machine is the one the harness
// measures. Its log buffer queues on the data arena's NVM device and its log
// file on the page store's SSD, and the engine main opens runs on exactly
// those media.
func TestServedSpecSharesDevices(t *testing.T) {
	m := spitfire.Build(servedSpec(1, 2, spitfire.SpitfireLazy, nil))
	db, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.BM().Close()
	if m.Log.Device() != m.Data.Device() {
		t.Error("the WAL buffer and the data arena are on two NVM devices")
	}
	if m.Pages.Device() != m.LogFile.Device() {
		t.Error("the page store and the log store are on two SSD devices")
	}
	if db.BM().PMem() != m.Data || db.BM().Disk() != m.Pages {
		t.Error("the buffer manager does not run on the machine's arena and page store")
	}
	if got := db.WAL().BufferBytes(); got != m.Log.Size() || got != 4<<20 {
		t.Errorf("WAL buffer is %d bytes, want the machine's 4 MiB log arena", got)
	}
}

// TestServerAndHarnessExportOneEngine: the served binary reports the engine
// the harness measures. Built from one Spec, a harness Env and a server
// export the same engine samples, counters and gauges alike; each source is
// its DB's samples, without duplicates, plus only its own rows.
func TestServerAndHarnessExportOneEngine(t *testing.T) {
	spec := servedSpec(2, 8, spitfire.SpitfireLazy, nil)
	env, err := harness.NewEnv(harness.EnvConfig{Spec: spec, Workload: harness.YCSBRO, DBBytes: harness.MB})
	if err != nil {
		t.Fatal(err)
	}
	defer env.BM.Close()
	db, err := spitfire.Build(spec).Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.BM().Close()
	kv, err := engine.OpenKV(db, 1, "kv", 256)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{DB: db, KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	names := func(source string, samples []obs.Sample) map[string]bool {
		out := map[string]bool{}
		for _, s := range samples {
			if out[s.Name] {
				t.Errorf("%s exports %q twice", source, s.Name)
			}
			out[s.Name] = true
		}
		return out
	}
	for _, c := range []struct {
		kind           string
		envSrc, envDB  []obs.Sample
		srvSrc, srvDB  []obs.Sample
		envOwn, srvOwn int
	}{
		{"counters", env.ObsCounters(), env.DB.ObsCounters(), srv.ObsCounters(), db.ObsCounters(), 1, 16},
		{"gauges", env.ObsGauges(), env.DB.ObsGauges(), srv.ObsGauges(), db.ObsGauges(), 1, 6},
	} {
		envDB, srvDB := names("harness DB "+c.kind, c.envDB), names("server DB "+c.kind, c.srvDB)
		if !reflect.DeepEqual(envDB, srvDB) {
			t.Errorf("engine %s differ:\nharness %v\nserver  %v", c.kind, envDB, srvDB)
		}
		for _, s := range []struct {
			source string
			all    map[string]bool
			db     map[string]bool
			own    int
		}{
			{"harness " + c.kind, names("harness "+c.kind, c.envSrc), envDB, c.envOwn},
			{"server " + c.kind, names("server "+c.kind, c.srvSrc), srvDB, c.srvOwn},
		} {
			for n := range s.db {
				if !s.all[n] {
					t.Errorf("%s lack the engine's %q", s.source, n)
				}
			}
			if own := len(s.all) - len(s.db); own != s.own {
				t.Errorf("%s add %d rows of their own to the engine's, want %d", s.source, own, s.own)
			}
		}
	}
}
