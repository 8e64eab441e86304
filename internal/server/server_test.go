package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/obs"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/wal"
)

// newTestEngine builds a small DB+KV over an optionally fault-injected NVM
// tier. The injector is nil when faulty is false.
func newTestEngine(t *testing.T, faulty bool) (*engine.DB, *engine.KV, *device.Injector) {
	t.Helper()
	cfg := core.Config{
		DRAMBytes: 8 * core.PageSize,
		NVMBytes:  32 * core.PageSize,
		Policy:    policy.SpitfireLazy,
	}
	var inj *device.Injector
	if faulty {
		cfg.DRAMBytes = 2 * core.PageSize
		cfg.Policy = policy.SpitfireEager
		nvmDev := device.New(device.NVMParams)
		inj = device.NewInjector(device.FaultConfig{Seed: 2})
		nvmDev.SetFaults(inj)
		cfg.PMem = pmem.New(pmem.Options{Size: cfg.NVMBytes, Device: nvmDev})
	}
	db, kv := openTestEngine(t, cfg)
	return db, kv, inj
}

// newCleanerEngine builds a DB+KV over an 8-frame DRAM pool with the
// background cleaner on, as the shipped server runs it. The eager policy
// sends every new and written page through DRAM.
func newCleanerEngine(t *testing.T) (*engine.DB, *engine.KV) {
	t.Helper()
	return openTestEngine(t, core.Config{
		DRAMBytes: 8 * core.PageSize,
		NVMBytes:  32 * core.PageSize,
		Policy:    policy.SpitfireEager,
		Cleaner:   true,
	})
}

func openTestEngine(t *testing.T, cfg core.Config) (*engine.DB, *engine.KV) {
	t.Helper()
	bm, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bm.Close)
	w, err := wal.New(wal.Options{
		Buffer: pmem.New(pmem.Options{Size: 1 << 18}),
		Store:  wal.NewMemLog(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(engine.Options{BM: bm, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	kv, err := engine.OpenKV(db, 1, "kv", 64)
	if err != nil {
		t.Fatal(err)
	}
	return db, kv
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.DB == nil {
		opts.DB, opts.KV, _ = newTestEngine(t, false)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// seedKey commits key→val directly through the engine (no HTTP counters).
func seedKey(t *testing.T, db *engine.DB, kv *engine.KV, key uint64, val string) {
	t.Helper()
	ctx := core.NewCtx(77)
	txn := db.Begin()
	if err := kv.Put(ctx, txn, key, []byte(val)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

func doReq(t *testing.T, method, url string, body []byte) (int, string, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), resp.Header
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKVEndpoints: the basic API contract — put/get/delete/scan/txn
// round-trips, 404 on missing keys, 400 on malformed requests, 413 on
// oversized values.
func TestKVEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	_ = s

	if code, _, _ := doReq(t, "PUT", ts.URL+"/kv/put?key=1", []byte("hello")); code != 204 {
		t.Fatalf("put status = %d", code)
	}
	code, body, _ := doReq(t, "GET", ts.URL+"/kv/get?key=1", nil)
	if code != 200 || body != "hello" {
		t.Fatalf("get = %d %q", code, body)
	}
	if code, _, _ = doReq(t, "GET", ts.URL+"/kv/get?key=999", nil); code != 404 {
		t.Fatalf("missing key status = %d", code)
	}
	if code, _, _ = doReq(t, "GET", ts.URL+"/kv/get?key=bogus", nil); code != 400 {
		t.Fatalf("bad key status = %d", code)
	}
	if code, _, _ = doReq(t, "PUT", ts.URL+"/kv/put?key=2", make([]byte, 100)); code != 413 {
		t.Fatalf("oversized put status = %d", code)
	}
	if code, _, _ = doReq(t, "DELETE", ts.URL+"/kv/delete?key=1", nil); code != 204 {
		t.Fatalf("delete status = %d", code)
	}
	if code, _, _ = doReq(t, "DELETE", ts.URL+"/kv/delete?key=1", nil); code != 404 {
		t.Fatalf("double delete status = %d", code)
	}

	for k := 10; k < 15; k++ {
		if code, _, _ := doReq(t, "PUT", fmt.Sprintf("%s/kv/put?key=%d", ts.URL, k), []byte("v")); code != 204 {
			t.Fatalf("put %d status = %d", k, code)
		}
	}
	code, body, _ = doReq(t, "GET", ts.URL+"/kv/scan?from=11&limit=2", nil)
	if code != 200 {
		t.Fatalf("scan status = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"key":11`) || !strings.Contains(lines[1], `"key":12`) {
		t.Fatalf("scan body = %q", body)
	}

	// Batch transaction: one put + one get + one delete, atomically.
	txnBody := `{"ops":[{"op":"put","key":20,"value":"` + "YmF0Y2g=" + `"},{"op":"get","key":10},{"op":"delete","key":14},{"op":"get","key":999}]}`
	code, body, _ = doReq(t, "POST", ts.URL+"/kv/txn", []byte(txnBody))
	if code != 200 {
		t.Fatalf("txn status = %d: %s", code, body)
	}
	var res struct {
		Results []struct {
			Op    string `json:"op"`
			Key   uint64 `json:"key"`
			Found bool   `json:"found"`
			Value []byte `json:"value"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("txn response not JSON: %v", err)
	}
	if len(res.Results) != 4 || !res.Results[0].Found || string(res.Results[1].Value) != "v" ||
		!res.Results[2].Found || res.Results[3].Found {
		t.Fatalf("txn results wrong: %s", body)
	}
	if code, body, _ = doReq(t, "GET", ts.URL+"/kv/get?key=20", nil); code != 200 || body != "batch" {
		t.Fatalf("batch put not visible: %d %q", code, body)
	}
	if code, _, _ = doReq(t, "GET", ts.URL+"/kv/get?key=14", nil); code != 404 {
		t.Fatalf("batch delete not applied: %d", code)
	}
	if code, _, _ = doReq(t, "POST", ts.URL+"/kv/txn", []byte(`{"ops":[{"op":"frob","key":1}]}`)); code != 400 {
		t.Fatalf("unknown op status = %d", code)
	}

	// Health endpoints on a healthy server.
	if code, _, _ = doReq(t, "GET", ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	code, body, _ = doReq(t, "GET", ts.URL+"/readyz", nil)
	if code != 200 || !strings.Contains(body, `"ready":true`) {
		t.Fatalf("readyz = %d %q", code, body)
	}
}

// TestOverloadSheds is the overload acceptance test: with admission
// capacity K and far more concurrent clients, the excess is refused with
// 429 within the deadline, every accepted request completes, and the
// buffer free list never runs dry.
func TestOverloadSheds(t *testing.T) {
	db, kv, _ := newTestEngine(t, false)
	s, ts := newTestServer(t, Options{
		DB: db, KV: kv,
		MaxInflight:        4,
		QueueDepth:         4,
		PerClientInflight:  4,
		PerClientQueue:     4,
		DefaultDeadline:    5 * time.Second,
		TestHoldPerRequest: 100 * time.Millisecond,
	})
	seedKey(t, db, kv, 1, "v")

	const clients = 32
	var ok200, rej429, other atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/kv/get?key=1")
			if err != nil {
				other.Add(1)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case 200:
				ok200.Add(1)
			case 429:
				rej429.Add(1)
			default:
				other.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	if other.Load() != 0 {
		t.Fatalf("%d requests got a status other than 200/429", other.Load())
	}
	if rej429.Load() == 0 {
		t.Fatal("no request was refused with 429 under 8x overload")
	}
	if ok200.Load() == 0 {
		t.Fatal("no request completed")
	}
	if ok200.Load()+rej429.Load() != clients {
		t.Fatalf("accounting: %d + %d != %d", ok200.Load(), rej429.Load(), clients)
	}
	// Refusals must be immediate: total wall time is a couple of hold
	// periods (admitted + queued wave), nowhere near clients×hold.
	if elapsed > 2*time.Second {
		t.Fatalf("overload took %v; refusals were not prompt", elapsed)
	}

	st := s.Stats()
	if st.Accepted != ok200.Load() || st.Completed != ok200.Load() {
		t.Fatalf("stats accepted/completed = %d/%d, want %d", st.Accepted, st.Completed, ok200.Load())
	}
	if st.RejectedQueueFull != rej429.Load() {
		t.Fatalf("stats rejected_queue_full = %d, want %d", st.RejectedQueueFull, rej429.Load())
	}
	if st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("stats show leaked slots: inflight=%d queued=%d", st.Inflight, st.Queued)
	}
	if st.MinFreeFracSeen <= 0 {
		t.Fatalf("buffer free list ran dry under overload: min frac %v", st.MinFreeFracSeen)
	}
}

// TestQueueDeadline: a request that expires while parked in the admission
// queue gets 503 + Retry-After, not an unbounded wait.
func TestQueueDeadline(t *testing.T) {
	db, kv, _ := newTestEngine(t, false)
	s, ts := newTestServer(t, Options{
		DB: db, KV: kv,
		MaxInflight:        1,
		PerClientInflight:  1,
		TestHoldPerRequest: 300 * time.Millisecond,
	})
	seedKey(t, db, kv, 1, "v")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		code, _, _ := doReq(t, "GET", ts.URL+"/kv/get?key=1", nil)
		if code != 200 {
			t.Errorf("slot holder status = %d", code)
		}
	}()
	waitFor(t, "first request admitted", func() bool { return s.Stats().Accepted == 1 })

	code, body, hdr := doReq(t, "GET", ts.URL+"/kv/get?key=1&deadline_ms=50", nil)
	if code != 503 || !strings.Contains(body, "queued") {
		t.Fatalf("queued-expiry response = %d %q", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}
	wg.Wait()
	if st := s.Stats(); st.QueueExpired != 1 {
		t.Fatalf("queue_expired = %d, want 1", st.QueueExpired)
	}
}

// TestHugeDeadlineClamps: a deadline_ms whose nanoseconds overflow int64 is
// clamped to maxDeadline and served, not turned into an already-expired
// context and a 503.
func TestHugeDeadlineClamps(t *testing.T) {
	db, kv, _ := newTestEngine(t, false)
	_, ts := newTestServer(t, Options{DB: db, KV: kv})
	seedKey(t, db, kv, 1, "v")

	code, body, _ := doReq(t, "GET", ts.URL+"/kv/get?key=1&deadline_ms=10000000000000", nil)
	if code < 200 || code > 299 {
		t.Fatalf("deadline_ms=1e13 response = %d %q, want 2xx", code, body)
	}
}

// TestSheddingDisablesQueuing: when the pressure monitor flips shedding,
// requests that cannot run immediately are refused with 503 instead of
// queuing, and /readyz reports not-ready.
func TestSheddingDisablesQueuing(t *testing.T) {
	db, kv, _ := newTestEngine(t, false)
	// ShedFreeFrac above 1 means every sample is "under pressure": the
	// state machine is exercised without having to actually starve a pool.
	s, ts := newTestServer(t, Options{
		DB: db, KV: kv,
		MaxInflight:        1,
		PerClientInflight:  1,
		ShedFreeFrac:       1.5,
		PressureInterval:   time.Millisecond,
		TestHoldPerRequest: 300 * time.Millisecond,
	})
	seedKey(t, db, kv, 1, "v")
	waitFor(t, "monitor to start shedding", func() bool { return s.Stats().Shedding })

	code, body, _ := doReq(t, "GET", ts.URL+"/readyz", nil)
	if code != 503 || !strings.Contains(body, "shedding") {
		t.Fatalf("readyz while shedding = %d %q", code, body)
	}
	if code, _, _ := doReq(t, "GET", ts.URL+"/healthz", nil); code != 200 {
		t.Fatal("healthz must stay 200 while shedding")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Shedding still serves what fits in capacity.
		code, _, _ := doReq(t, "GET", ts.URL+"/kv/get?key=1", nil)
		if code != 200 {
			t.Errorf("in-capacity request while shedding = %d", code)
		}
	}()
	waitFor(t, "slot holder admitted", func() bool { return s.Stats().Accepted == 1 })

	code, _, hdr := doReq(t, "GET", ts.URL+"/kv/get?key=1", nil)
	if code != 503 {
		t.Fatalf("over-capacity request while shedding = %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed 503 missing Retry-After")
	}
	wg.Wait()
	if st := s.Stats(); st.Shed == 0 {
		t.Fatal("shed counter did not move")
	}
}

// TestDrainingSemantics: StartDrain (the notice phase before Drain) flips
// /readyz to 503 while /healthz stays 200, and refuses new KV work.
func TestDrainingSemantics(t *testing.T) {
	db, kv, _ := newTestEngine(t, false)
	s, ts := newTestServer(t, Options{DB: db, KV: kv})
	seedKey(t, db, kv, 1, "v")

	s.StartDrain()
	code, body, _ := doReq(t, "GET", ts.URL+"/readyz", nil)
	if code != 503 || !strings.Contains(body, "draining") {
		t.Fatalf("readyz while draining = %d %q", code, body)
	}
	if code, _, _ := doReq(t, "GET", ts.URL+"/healthz", nil); code != 200 {
		t.Fatal("healthz must stay 200 while draining")
	}
	code, _, hdr := doReq(t, "GET", ts.URL+"/kv/get?key=1", nil)
	if code != 503 {
		t.Fatalf("kv request while draining = %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("draining 503 missing Retry-After")
	}
	if st := s.Stats(); st.RejectedDraining != 1 {
		t.Fatalf("rejected_draining = %d, want 1", st.RejectedDraining)
	}
}

// TestDrainGraceful is the graceful-drain acceptance test over a real
// listener: in-flight requests complete, Drain checkpoints the quiesced
// engine, and the listener is closed afterwards.
func TestDrainGraceful(t *testing.T) {
	db, kv, _ := newTestEngine(t, false)
	s, err := New(Options{
		DB: db, KV: kv,
		MaxInflight:        4,
		TestHoldPerRequest: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	seedKey(t, db, kv, 1, "v")
	base := "http://" + s.Addr()

	const inflight = 3
	var done sync.WaitGroup
	codes := make([]int, inflight)
	for i := 0; i < inflight; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			code, _, _ := doReq(t, "PUT", fmt.Sprintf("%s/kv/put?key=%d", base, 100+i), []byte("payload"))
			codes[i] = code
		}(i)
	}
	waitFor(t, "in-flight writes admitted", func() bool { return s.Stats().Accepted == inflight })

	if err := s.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	done.Wait()
	for i, code := range codes {
		if code != 204 {
			t.Fatalf("in-flight request %d finished with %d during drain, want 204", i, code)
		}
	}
	st := s.Stats()
	if !st.Draining {
		t.Fatal("stats do not show draining")
	}
	if st.DrainCheckpoints != 1 || st.DrainSkipped != 0 {
		t.Fatalf("drain checkpoint: ran=%d skipped=%d, want 1/0", st.DrainCheckpoints, st.DrainSkipped)
	}
	if st.Completed != inflight {
		t.Fatalf("completed = %d, want %d", st.Completed, inflight)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting connections after Drain")
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("second Drain not idempotent: %v", err)
	}
}

// TestDrainWithLiveCleaner: a drain that lands while the cleaner is still
// replenishing checkpoints every dirty page. Drain stops the cleaners first,
// so the flush never skips a page because the cleaner held its latch
// mid-evict.
func TestDrainWithLiveCleaner(t *testing.T) {
	val := bytes.Repeat([]byte{'v'}, 64)
	for i := 0; i < 50; i++ {
		db, kv := newCleanerEngine(t)
		s, err := New(Options{DB: db, KV: kv})
		if err != nil {
			t.Fatal(err)
		}
		// ~20 pages of tuples through 8 frames: the last PUTs leave the free
		// list low and the cleaner mid-batch.
		ctx, txn := core.NewCtx(9), db.Begin()
		for k := uint64(0); k < 3000; k++ {
			if err := kv.Put(ctx, txn, k, val); err != nil {
				t.Fatalf("iteration %d: put %d: %v", i, k, err)
			}
		}
		if err := txn.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(); err != nil {
			t.Fatalf("iteration %d: Drain: %v", i, err)
		}
		if st := s.Stats(); st.DrainCheckpoints != 1 || st.DrainSkipped != 0 {
			t.Fatalf("iteration %d: drain checkpoint ran=%d skipped=%d, want 1/0", i, st.DrainCheckpoints, st.DrainSkipped)
		}
	}
}

// TestSheddingTracksRealPressure: with the cleaner on, a free list under
// ShedFreeFrac means allocations are outpacing the cleaner — here because
// every DRAM frame is pinned — and the flag clears once the pins drain and
// one miss re-arms the cleaner.
func TestSheddingTracksRealPressure(t *testing.T) {
	db, kv := newCleanerEngine(t)
	s, ts := newTestServer(t, Options{DB: db, KV: kv, PressureInterval: time.Millisecond})
	bm, ctx := db.BM(), core.NewCtx(5)

	var pins []*core.Handle
	for bm.Pressure().DRAMFree > 0 {
		_, h, err := bm.NewPage(ctx)
		if err != nil {
			t.Fatal(err)
		}
		pins = append(pins, h)
	}
	waitFor(t, "monitor to start shedding", func() bool { return s.Stats().Shedding })
	if code, body, _ := doReq(t, "GET", ts.URL+"/readyz", nil); code != 503 || !strings.Contains(body, "shedding") {
		t.Fatalf("readyz with every DRAM frame pinned = %d %q", code, body)
	}

	for _, h := range pins {
		h.Release()
	}
	_, h, err := bm.NewPage(ctx) // the miss whose kick re-arms the stalled cleaner
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	waitFor(t, "shedding to clear after the pins drain", func() bool { return !s.Stats().Shedding })
	if frac := bm.Pressure().MinFreeFrac(); frac < 2*s.opts.ShedFreeFrac {
		t.Fatalf("shedding cleared at free fraction %.3f, under the %.3f hysteresis mark", frac, 2*s.opts.ShedFreeFrac)
	}
	if code, body, _ := doReq(t, "GET", ts.URL+"/readyz", nil); code != 200 {
		t.Fatalf("readyz after pressure cleared = %d %q", code, body)
	}
}

// TestReadOnlyOnDegraded: a permanent NVM failure flips the server into
// read-only mode — writes get a clean 503, reads keep working off the
// surviving tiers, and /readyz reports the degradation.
func TestReadOnlyOnDegraded(t *testing.T) {
	db, kv, inj := newTestEngine(t, true)
	s, ts := newTestServer(t, Options{
		DB: db, KV: kv,
		PressureInterval: time.Millisecond,
	})
	bm := db.BM()

	// Churn raw pages through the NVM tier, then fail it permanently and
	// keep writing until the buffer manager latches degraded mode (the
	// same sequence core's fault tests use). The churned pages live only on
	// the dead tier and are lost with it; the engine's own data is seeded
	// afterwards, through the surviving two-tier (DRAM+SSD) path.
	ctx := core.NewCtx(9)
	data := make([]byte, core.PageSize)
	var pids []uint64
	for i := 0; i < 4; i++ {
		pid, h, err := bm.NewPage(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WriteAt(ctx, 0, data); err != nil {
			t.Fatal(err)
		}
		h.Release()
		pids = append(pids, pid)
	}
	inj.FailNow()
	waitFor(t, "buffer manager to degrade", func() bool {
		for _, pid := range pids {
			if h, err := bm.FetchPage(ctx, pid, core.WriteIntent); err == nil {
				h.Release()
			}
		}
		return bm.NVMDegraded()
	})
	waitFor(t, "server to latch read-only", func() bool { return s.Stats().ReadOnly })
	seedKey(t, db, kv, 1, "survivor")

	code, body, _ := doReq(t, "PUT", ts.URL+"/kv/put?key=2", []byte("nope"))
	if code != 503 || !strings.Contains(body, "read-only") {
		t.Fatalf("write while degraded = %d %q", code, body)
	}
	code, body, _ = doReq(t, "GET", ts.URL+"/kv/get?key=1", nil)
	if code != 200 || body != "survivor" {
		t.Fatalf("read while degraded = %d %q, want the seeded value", code, body)
	}
	code, body, _ = doReq(t, "GET", ts.URL+"/readyz", nil)
	if code != 503 || !strings.Contains(body, "read-only") {
		t.Fatalf("readyz while degraded = %d %q", code, body)
	}
	if code, _, _ := doReq(t, "GET", ts.URL+"/healthz", nil); code != 200 {
		t.Fatal("healthz must stay 200 while degraded")
	}
	if st := s.Stats(); st.DegradedTrips != 1 || st.RejectedReadOnly == 0 {
		t.Fatalf("degraded accounting: trips=%d rejected=%d", st.DegradedTrips, st.RejectedReadOnly)
	}
}

// TestObsIntegration: with an Obs attached, the server serves /metrics from
// its own mux (lint-clean, with the request/admission families), records
// request latency histograms, and feeds the snapshot source.
func TestObsIntegration(t *testing.T) {
	db, kv, _ := newTestEngine(t, false)
	o := obs.New(obs.Config{})
	s, ts := newTestServer(t, Options{DB: db, KV: kv, Obs: o})
	_ = s

	// A transaction that never finishes holds back version reclamation;
	// the gauge below is how that shows from outside.
	stuck := db.Begin()
	defer stuck.Commit(core.NewCtx(78))
	if code, _, _ := doReq(t, "PUT", ts.URL+"/kv/put?key=1", []byte("x")); code != 204 {
		t.Fatal("put failed")
	}
	if code, _, _ := doReq(t, "GET", ts.URL+"/kv/get?key=1", nil); code != 200 {
		t.Fatal("get failed")
	}

	code, body, _ := doReq(t, "GET", ts.URL+"/metrics", nil)
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if err := obs.ValidatePrometheus(body); err != nil {
		t.Fatalf("/metrics fails the linter: %v", err)
	}
	for _, want := range []string{
		"spitfire_req_accepted_total",
		"spitfire_req_rejected_queue_full_total",
		"spitfire_req_shed_total",
		"spitfire_inflight",
		"spitfire_req_get_ns_count 1",
		"spitfire_req_put_ns_count 1",
		"spitfire_mvto_versions_retained 1",
		"spitfire_wal_shards 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	code, body, _ = doReq(t, "GET", ts.URL+"/snapshot.json", nil)
	if code != 200 || !strings.Contains(body, `"req_accepted": 2`) {
		t.Fatalf("/snapshot.json = %d, missing server counters: %s", code, body)
	}
}

// TestAdmitterUnit: the two-stage gate's bookkeeping — slot reuse, queue
// caps, idempotent release, client-map cleanup.
func TestAdmitterUnit(t *testing.T) {
	a := newAdmitter(2, 1, 1, 1)
	ctx := t.Context()

	rel1, err := a.admit(ctx, "alice", false)
	if err != nil {
		t.Fatal(err)
	}
	// alice is at her per-client cap (1): her next request queues, a third
	// would overflow, but bob still gets in on the global gate.
	relB, err := a.admit(ctx, "bob", false)
	if err != nil {
		t.Fatalf("second client refused: %v", err)
	}
	if _, err := a.admit(ctx, "bob", true); err != ErrShedding {
		t.Fatalf("noQueue admit error = %v, want ErrShedding", err)
	}
	if inflight, _, clients := a.gauges(); inflight != 2 || clients != 2 {
		t.Fatalf("gauges = %d inflight %d clients", inflight, clients)
	}
	rel1()
	rel1() // idempotent
	relB()
	if inflight, queued, clients := a.gauges(); inflight != 0 || queued != 0 || clients != 0 {
		t.Fatalf("post-release gauges = %d/%d/%d, want zeros", inflight, queued, clients)
	}
}

// TestObsCountersCoverCore: the server source exports every buffer-manager
// counter next to its request families, under unique names.
func TestObsCountersCoverCore(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	have := map[string]bool{}
	for _, c := range s.ObsCounters() {
		if have[c.Name] {
			t.Errorf("duplicate sample %q", c.Name)
		}
		have[c.Name] = true
	}
	for _, c := range s.bm.ObsCounters() {
		if !have[c.Name] {
			t.Errorf("server ObsCounters lacks core sample %q", c.Name)
		}
	}
	if !have["req_accepted"] || !have["wal_appends"] {
		t.Error("server ObsCounters lost its own request/WAL samples")
	}
}
