//go:build blackbox

// Package blackbox drives a real spitfire-serve process over real sockets
// and asserts the robustness contract from the outside: overload turns into
// 429/503 (never an uncontrolled 5xx), SIGTERM drains without dropping an
// accepted request and checkpoints before exit, and the readiness probe
// flips under pressure while liveness stays green. Build-tag-gated because
// it compiles the binary and binds ports:
//
//	go test -tags blackbox ./tests/blackbox/
//
// With -tags blackbox,lockcheck the binary is built with the latch-order
// checker too, so the server's own goroutines run under it.
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

	"github.com/spitfire-db/spitfire/internal/lockcheck"
	"github.com/spitfire-db/spitfire/internal/obs"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// serveBinary builds cmd/spitfire-serve once per test run, with the
// latch-order checker when this test binary has it.
func serveBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "spitfire-blackbox")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "spitfire-serve")
		args := []string{"build", "-o", binPath}
		if lockcheck.Enabled {
			args = append(args, "-tags", "lockcheck")
		}
		args = append(args, "github.com/spitfire-db/spitfire/cmd/spitfire-serve")
		out, err := exec.Command("go", args...).CombinedOutput()
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

// load tallies one drive's responses by status code, plus transport errors
// and the 429/503 refusals that carried a Retry-After hint.
type load struct {
	mu         sync.Mutex
	codes      map[int]int
	netErrs    int
	retryAfter int
}

func (l *load) String() string {
	return fmt.Sprintf("codes=%v neterr=%d retry_after=%d", l.codes, l.netErrs, l.retryAfter)
}

// uncontrolled counts the 5xx responses that are not a 503 refusal.
func (l *load) uncontrolled() int {
	n := 0
	for code, c := range l.codes {
		if code >= 500 && code != http.StatusServiceUnavailable {
			n += c
		}
	}
	return n
}

// drive sends ops requests at base from clients goroutines, each under its
// own X-Client-ID. Client c's i-th request goes to key (c + i*clients) mod
// keys; it is a PUT of valueSize bytes, or, when mixed, a GET on every
// other request.
func drive(base string, clients, ops, keys int, mixed bool, valueSize int) *load {
	l := &load{codes: map[int]int{}}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := fmt.Sprintf("blackbox-%d", c)
			val := strings.Repeat("v", valueSize)
			for i := c; i < ops; i += clients {
				url := fmt.Sprintf("%s/kv/put?key=%d", base, i%keys)
				method, body := http.MethodPut, io.Reader(strings.NewReader(val))
				if mixed && i/clients%2 == 1 {
					url = fmt.Sprintf("%s/kv/get?key=%d", base, i%keys)
					method, body = http.MethodGet, nil
				}
				req, _ := http.NewRequest(method, url, body)
				req.Header.Set("X-Client-ID", id)
				resp, err := http.DefaultClient.Do(req)
				l.mu.Lock()
				if err != nil {
					l.netErrs++
				} else {
					l.codes[resp.StatusCode]++
					if resp.Header.Get("Retry-After") != "" &&
						(resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) {
						l.retryAfter++
					}
				}
				l.mu.Unlock()
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(c)
	}
	wg.Wait()
	return l
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

	res := drive(p.base, 16, 800, 64, true, 32)
	t.Logf("overload: %s", res)
	if n := res.uncontrolled(); n != 0 {
		t.Fatalf("%d uncontrolled 5xx under overload; stderr:\n%s", n, p.stderr.String())
	}
	if res.netErrs != 0 {
		t.Fatalf("%d transport errors under overload", res.netErrs)
	}
	if res.codes[http.StatusTooManyRequests] == 0 {
		t.Fatal("8x overload produced no 429s — admission control not engaging")
	}
	if res.retryAfter == 0 {
		t.Fatal("refusals carried no Retry-After hint")
	}
	if res.codes[http.StatusNoContent] == 0 {
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
	loadDone := make(chan *load, 1)
	go func() { loadDone <- drive(p.base, 4, 2000, 64, true, 32) }()
	time.Sleep(100 * time.Millisecond) // let the load ramp

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("server exited non-zero after SIGTERM: %v\nstderr:\n%s", err, p.stderr.String())
	}
	res := <-loadDone
	t.Logf("drain load: %s", res)
	if n := res.uncontrolled(); n != 0 {
		t.Fatalf("%d uncontrolled 5xx during drain", n)
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
// load and again after sitting idle — and still drains cleanly. The load
// writes more log than the DRAM buffer (and the 4 MiB NVM log buffer) holds,
// so the server has checkpointed itself, and its /metrics scrape lints clean.
func TestReadyAfterDataOutgrowsDRAM(t *testing.T) {
	p := startServe(t, "-dram-mb", "1", "-nvm-mb", "2", "-drain-grace", "50ms")
	res := drive(p.base, 4, 30_000, 30_000, false, 200)
	t.Logf("load: %s", res)
	if res.codes[http.StatusNoContent] < 29_000 || res.uncontrolled() != 0 || res.netErrs != 0 {
		t.Fatalf("load did not go through cleanly: %s", res)
	}

	code, scrape := get(t, p.base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if err := obs.ValidatePrometheus(scrape); err != nil {
		t.Fatalf("/metrics does not lint: %v", err)
	}
	// Each sample must be present; the checkpoint counters and the bytes
	// written to both data devices must have moved.
	for name, min := range map[string]float64{
		"spitfire_checkpoints_total": 1, "spitfire_checkpoint_pause_wall_ns_count": 1,
		"spitfire_wal_log_bytes": 0, "spitfire_cleaner_wakeups_total": 0,
		"spitfire_req_accepted_total": 0, "spitfire_inflight": 0,
		"spitfire_ssd_bytes_written_total": 1, "spitfire_nvm_bytes_written_total": 1,
	} {
		m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindStringSubmatch(scrape)
		if m == nil {
			t.Fatalf("/metrics carries no %s sample", name)
		}
		if v, _ := strconv.ParseFloat(m[1], 64); v < min {
			t.Fatalf("%s = %s after the load, want >= %g", name, m[1], min)
		}
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
