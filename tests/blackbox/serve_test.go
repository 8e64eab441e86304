//go:build blackbox

// Package blackbox drives a real spitfire-serve process over real sockets
// and asserts the robustness contract from the outside: overload turns into
// 429/503 (never an uncontrolled 5xx), SIGTERM drains without dropping an
// accepted request and checkpoints before exit, and the readiness probe
// flips under pressure while liveness stays green. Build-tag-gated because
// it compiles the binary and binds ports:
//
//	go test -tags blackbox ./tests/blackbox/
package blackbox

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/spitfire-db/spitfire/internal/harness"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// serveBinary builds cmd/spitfire-serve once per test run.
func serveBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "spitfire-blackbox")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "spitfire-serve")
		out, err := exec.Command("go", "build", "-o", binPath,
			"github.com/spitfire-db/spitfire/cmd/spitfire-serve").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

// proc is one running spitfire-serve under test.
type proc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *lockedBuf
}

type lockedBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

var servingRE = regexp.MustCompile(`serving on (http://[^/\s]+)/`)

// startServe launches the binary on an ephemeral port (-addr :0) and waits
// until it reports the resolved address and answers /healthz.
func startServe(t *testing.T, extraArgs ...string) *proc {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(serveBinary(t), args...)
	buf := &lockedBuf{}
	cmd.Stderr = buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, stderr: buf}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := servingRE.FindStringSubmatch(buf.String()); m != nil {
			p.base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never reported its address; stderr:\n%s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for {
		resp, err := http.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return p
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never came up; stderr:\n%s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestOverloadSheds floods a deliberately tiny server and asserts every
// refusal is a clean 429/503 with Retry-After — zero uncontrolled 5xx, zero
// transport errors — and that the server still answers afterwards.
func TestOverloadSheds(t *testing.T) {
	p := startServe(t,
		"-max-inflight", "2", "-queue-depth", "2",
		"-per-client", "2", "-per-client-queue", "2",
		"-dram-mb", "4", "-nvm-mb", "8",
		"-test-hold", "5ms") // slow the server down so overload actually piles up

	res := harness.DriveLoad(harness.LoadOpts{
		BaseURL: p.base, Clients: 16, Ops: 800, Keys: 64, ReadFrac: 0.5,
	})
	t.Logf("overload: %s", res)
	if res.Other5xx != 0 {
		t.Fatalf("%d uncontrolled 5xx under overload; stderr:\n%s", res.Other5xx, p.stderr.String())
	}
	if res.NetErrors != 0 {
		t.Fatalf("%d transport errors under overload", res.NetErrors)
	}
	if res.Rejected429 == 0 {
		t.Fatal("8x overload produced no 429s — admission control not engaging")
	}
	if res.RetryAfter == 0 {
		t.Fatal("refusals carried no Retry-After hint")
	}
	if res.OK == 0 {
		t.Fatal("no request completed under overload")
	}

	// The server must still be healthy and serving once the storm passes.
	if code, _ := get(t, p.base+"/healthz"); code != 200 {
		t.Fatalf("healthz after overload = %d", code)
	}
	if code, body := get(t, p.base+"/readyz"); code != 200 {
		t.Fatalf("readyz after overload = %d %q", code, body)
	}
}

var drainedRE = regexp.MustCompile(`drained cleanly: (\d+) accepted, (\d+) completed, checkpoint ok`)

// TestSIGTERMDrain sends SIGTERM while writers are in flight and asserts the
// process exits 0 after completing every accepted request and checkpointing.
func TestSIGTERMDrain(t *testing.T) {
	p := startServe(t, "-drain-grace", "200ms")

	// Background load while the signal lands. Refusals (503 draining) and
	// connection errors after the listener closes are expected; what must
	// not happen is an accepted request getting dropped — the server's own
	// accepted/completed accounting below proves that.
	loadDone := make(chan harness.LoadResult, 1)
	go func() {
		loadDone <- harness.DriveLoad(harness.LoadOpts{
			BaseURL: p.base, Clients: 4, Ops: 2000, Keys: 64, ReadFrac: 0.5,
		})
	}()
	time.Sleep(100 * time.Millisecond) // let the load ramp

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("server exited non-zero after SIGTERM: %v\nstderr:\n%s", err, p.stderr.String())
	}
	res := <-loadDone
	t.Logf("drain load: %s", res)
	if res.Other5xx != 0 {
		t.Fatalf("%d uncontrolled 5xx during drain", res.Other5xx)
	}

	stderr := p.stderr.String()
	m := drainedRE.FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no clean-drain report in stderr:\n%s", stderr)
	}
	accepted, _ := strconv.Atoi(m[1])
	completed, _ := strconv.Atoi(m[2])
	if accepted != completed {
		t.Fatalf("drain dropped requests: %d accepted, %d completed", accepted, completed)
	}
	if accepted == 0 {
		t.Fatal("drain test raced: no request was accepted before SIGTERM")
	}
}

// TestReadyzFlipsUnderPressure runs a server whose shed threshold is above
// any possible free fraction, so the pressure monitor flips to shedding
// immediately: /readyz must go 503 while /healthz stays 200, in-capacity
// requests still serve, and refusals say why.
func TestReadyzFlipsUnderPressure(t *testing.T) {
	p := startServe(t, "-shed-frac", "1.5", "-pressure-interval", "1ms",
		"-max-inflight", "1", "-per-client", "1")

	deadline := time.Now().Add(5 * time.Second)
	var code int
	var body string
	for {
		code, body = get(t, p.base+"/readyz")
		if code == 503 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never flipped: %d %q", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(body, "shedding") {
		t.Fatalf("readyz 503 body = %q, want shedding reason", body)
	}
	if code, _ := get(t, p.base+"/healthz"); code != 200 {
		t.Fatal("healthz must stay 200 while shedding")
	}

	// Shedding refuses what exceeds capacity but still serves what fits.
	if code, _ := get(t, p.base+"/kv/get?key=1"); code != 404 {
		t.Fatalf("in-capacity request while shedding = %d, want 404 (missing key)", code)
	}
	code, body = get(t, p.base+"/stats.json")
	if code != 200 || !strings.Contains(body, `"shedding":true`) {
		t.Fatalf("stats.json = %d %q, want shedding:true", code, body)
	}
}

var minFreeFracRE = regexp.MustCompile(`"min_free_frac":([0-9.]+)`)

// TestReadyAfterDataOutgrowsDRAM loads far more data than the buffers hold
// and asserts readiness means ready: the cleaner keeps the free lists
// stocked, so a warm, healthy server answers /readyz 200 — right after the
// load and again after sitting idle — and still drains cleanly.
func TestReadyAfterDataOutgrowsDRAM(t *testing.T) {
	p := startServe(t, "-dram-mb", "1", "-nvm-mb", "2", "-drain-grace", "50ms")
	res := harness.DriveLoad(harness.LoadOpts{
		BaseURL: p.base, Clients: 4, Ops: 30_000, Keys: 30_000, ReadFrac: 0.001, ValueSize: 200,
	})
	t.Logf("load: %s", res)
	if res.OK < 29_000 || res.Other5xx != 0 || res.NetErrors != 0 {
		t.Fatalf("load did not go through cleanly: %s", res)
	}

	// Shedding that tripped while the load was still allocating clears at
	// the monitor's next sample; after that the idle server must stay ready.
	deadline := time.Now().Add(time.Second)
	for {
		code, body := get(t, p.base+"/readyz")
		if code == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz right after the load = %d %q", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond)
	code, body := get(t, p.base+"/readyz")
	if code != 200 {
		t.Fatalf("readyz after 300 ms idle = %d %q", code, body)
	}
	m := minFreeFracRE.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("readyz body %q carries no min_free_frac", body)
	}
	if frac, _ := strconv.ParseFloat(m[1], 64); frac < 0.10 {
		t.Fatalf("idle min_free_frac = %v, want >= 0.10 (the cleaner's low watermark is 1/8)", frac)
	}

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("server exited non-zero after SIGTERM: %v\nstderr:\n%s", err, p.stderr.String())
	}
	if !drainedRE.MatchString(p.stderr.String()) {
		t.Fatalf("no clean-drain report in stderr:\n%s", p.stderr.String())
	}
}
