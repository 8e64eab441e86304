package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/obs"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/ssd"
)

// TestObsFetchEvictTraced: with observability attached, fetch/evict churn
// populates the per-tier latency histograms and tracer rings, and both
// exporters produce parseable output (Chrome trace JSON, Prometheus text).
func TestObsFetchEvictTraced(t *testing.T) {
	o := obs.New(obs.Config{RingSize: 256})
	// Device-level histograms are wired by whoever owns the devices (the
	// harness, normally) — mirror that here with a real SSD device.
	ssdDev := device.New(device.SSDParams)
	ssdDev.SetLatencyHistograms(o.Hist(obs.HDevSSDRead), o.Hist(obs.HDevSSDWrite))
	bm := newBM(t, Config{
		DRAMBytes: 2 * PageSize,
		NVMBytes:  4 * nvmFrameSlot,
		Policy:    policy.SpitfireEager,
		SSD:       ssd.NewMem(ssdDev),
		Obs:       o,
	})
	seed(t, bm, 8)

	ctx := NewCtx(20)
	data := make([]byte, PageSize)
	for round := 0; round < 3; round++ {
		for pid := uint64(0); pid < 8; pid++ {
			h, err := bm.FetchPage(ctx, pid, WriteIntent)
			if err != nil {
				t.Fatal(err)
			}
			marker(data, pid, byte(round))
			if err := h.WriteAt(ctx, 0, data); err != nil {
				t.Fatal(err)
			}
			h.Release()
		}
	}

	st := bm.Stats()
	var fetches int64
	for _, h := range []obs.Hist{obs.HFetchDRAM, obs.HFetchMini, obs.HFetchNVM, obs.HFetchMiss} {
		fetches += o.Hist(h).Count()
	}
	if want := st.HitDRAM + st.HitMini + st.HitNVM + st.MissSSD; fetches != want {
		t.Errorf("fetch histograms hold %d observations, stats count %d fetches", fetches, want)
	}
	if st.EvictDRAM > 0 && o.Hist(obs.HEvictDRAM).Count() == 0 {
		t.Error("DRAM evictions happened but HEvictDRAM is empty")
	}
	if o.Hist(obs.HDevSSDRead).Count() == 0 {
		t.Error("SSD reads happened but the device read histogram is empty")
	}
	if rings, _ := o.RingCount(); rings == 0 {
		t.Fatal("no tracer ring was allocated for the worker context")
	}

	var trace bytes.Buffer
	if err := o.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &parsed); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	sawFetch := false
	for _, ev := range parsed.TraceEvents {
		if name, _ := ev["name"].(string); strings.HasPrefix(name, "fetch") {
			sawFetch = true
			break
		}
	}
	if !sawFetch {
		t.Error("Chrome trace holds no fetch events")
	}

	var prom bytes.Buffer
	if err := o.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePrometheus(prom.String()); err != nil {
		t.Fatalf("Prometheus exposition does not lint: %v", err)
	}
}

// TestObsConcurrentChurn drives parallel workers through fetch/write/evict
// churn with tracing on while exporters snapshot concurrently — the
// race-detector check that per-worker rings and shared histograms are safe.
func TestObsConcurrentChurn(t *testing.T) {
	o := obs.New(obs.Config{RingSize: 128})
	bm := newBM(t, Config{
		DRAMBytes: 2 * PageSize,
		NVMBytes:  4 * nvmFrameSlot,
		Policy:    policy.SpitfireEager,
		Obs:       o,
	})
	const pages = 12
	seed(t, bm, pages)

	const workers = 8
	const opsPer = 300
	var wg, wgExp sync.WaitGroup
	stop := make(chan struct{})
	// Exporters race the workers: snapshots must never block or tear.
	wgExp.Add(1)
	go func() {
		defer wgExp.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sink bytes.Buffer
			_ = o.WriteJSONL(&sink)
			sink.Reset()
			_ = o.WritePrometheus(&sink)
		}
	}()
	errs := make([]error, workers)
	// Per-page locks stand in for the engine's record-level concurrency
	// control: the buffer manager hands out concurrent handles to one page
	// by design, so unsynchronized test reads would race test writes.
	var pageLocks [pages]sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := NewCtx(uint64(100 + w))
			data := make([]byte, 64)
			for i := 0; i < opsPer; i++ {
				pid := uint64((i*7 + w*13) % pages)
				intent := ReadIntent
				if i%3 == 0 {
					intent = WriteIntent
				}
				pageLocks[pid].Lock()
				h, err := bm.FetchPage(ctx, pid, intent)
				if err != nil {
					pageLocks[pid].Unlock()
					errs[w] = err
					return
				}
				if intent == WriteIntent {
					marker(data, pid, byte(i))
					err = h.WriteAt(ctx, 0, data)
				} else {
					err = h.ReadAt(ctx, 0, data)
				}
				h.Release()
				pageLocks[pid].Unlock()
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	wgExp.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	var total int64
	for _, h := range []obs.Hist{obs.HFetchDRAM, obs.HFetchMini, obs.HFetchNVM, obs.HFetchMiss} {
		total += o.Hist(h).Count()
	}
	if want := int64(workers * opsPer); total != want {
		t.Errorf("fetch histograms hold %d observations, want %d", total, want)
	}
}

// benchSetup builds a manager whose working set fits in DRAM, so the
// benchmark measures the fetch fast path (hit, pin, release) rather than
// device traffic.
func benchSetup(b *testing.B, o *obs.Obs) (*BufferManager, *Ctx) {
	b.Helper()
	bm, err := New(Config{
		DRAMBytes: 16 * PageSize,
		Policy:    policy.Policy{Dr: 1, Dw: 1},
		Obs:       o,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(bm.Close)
	ctx := NewCtx(1)
	buf := make([]byte, PageSize)
	for pid := uint64(0); pid < 8; pid++ {
		if err := bm.SeedPage(ctx, pid, buf); err != nil {
			b.Fatal(err)
		}
		h, err := bm.FetchPage(ctx, pid, ReadIntent)
		if err != nil {
			b.Fatal(err)
		}
		h.Release()
	}
	return bm, ctx
}

// BenchmarkFetchDisabled is the baseline: observability not attached, so
// FetchPage takes the single-nil-check fast path. Compare against
// BenchmarkFetchTraced to see the cost of full tracing; the <5%-when-off
// acceptance number is this benchmark against the pre-instrumentation
// fetch, which differs from it by exactly one pointer nil check.
func BenchmarkFetchDisabled(b *testing.B) {
	bm, ctx := benchSetup(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := bm.FetchPage(ctx, uint64(i%8), ReadIntent)
		if err != nil {
			b.Fatal(err)
		}
		h.Release()
	}
}

// BenchmarkFetchTraced measures the same DRAM-hit loop with tracing on:
// clock reads, one histogram observation and one ring emit per fetch.
func BenchmarkFetchTraced(b *testing.B) {
	o := obs.New(obs.Config{})
	bm, ctx := benchSetup(b, o)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := bm.FetchPage(ctx, uint64(i%8), ReadIntent)
		if err != nil {
			b.Fatal(err)
		}
		h.Release()
	}
}
