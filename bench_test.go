// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6), plus micro-benchmarks of the core building blocks.
//
// The experiment benchmarks run the same code as cmd/spitfire-bench in
// -quick mode (sizes shrunk 4x with every capacity ratio preserved).
// Throughput inside an experiment is measured in simulated time; the
// testing.B numbers measure the wall-clock cost of regenerating each
// result. Custom metrics surface the headline simulated numbers.
package spitfire_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	spitfire "github.com/spitfire-db/spitfire"
	"github.com/spitfire-db/spitfire/internal/harness"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// runExperiment is the common body for the per-figure benchmarks.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	e, ok := harness.Lookup(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(harness.Opts{Quick: true, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkFig5(b *testing.B)   { runExperiment(b, "fig5") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkFig6(b *testing.B)   { runExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { runExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { runExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { runExperiment(b, "fig15") }

// ---- micro-benchmarks --------------------------------------------------------

// benchBM builds a small three-tier manager seeded with pages. The
// background cleaner is disabled so the micro-benchmarks isolate the
// foreground path; BenchmarkFetchChurnCleaner measures the cleaner itself.
func benchBM(b *testing.B, pol spitfire.Policy, pages int) (*spitfire.BufferManager, *spitfire.Ctx) {
	b.Helper()
	bm, err := spitfire.New(spitfire.Config{
		DRAMBytes: 16 * spitfire.PageSize,
		NVMBytes:  64 * (spitfire.PageSize + 64),
		Policy:    pol,
		Cleaner:   spitfire.CleanerConfig{Disable: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(bm.Close)
	ctx := spitfire.NewCtx(1)
	buf := make([]byte, spitfire.PageSize)
	for pid := uint64(0); pid < uint64(pages); pid++ {
		if err := bm.SeedPage(ctx, pid, buf); err != nil {
			b.Fatal(err)
		}
	}
	return bm, ctx
}

// BenchmarkFetchHit measures the wall-clock cost of a buffered fetch (the
// hot path of every workload op).
func BenchmarkFetchHit(b *testing.B) {
	bm, ctx := benchBM(b, spitfire.SpitfireLazy, 8)
	// Warm the page in.
	h, err := bm.FetchPage(ctx, 0, spitfire.ReadIntent)
	if err != nil {
		b.Fatal(err)
	}
	h.Release()
	buf := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := bm.FetchPage(ctx, 0, spitfire.ReadIntent)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.ReadAt(ctx, 0, buf); err != nil {
			b.Fatal(err)
		}
		h.Release()
	}
}

// BenchmarkFetchChurn measures fetches over a working set far beyond the
// buffers, exercising the full eviction/migration machinery.
func BenchmarkFetchChurn(b *testing.B) {
	const pages = 512
	bm, ctx := benchBM(b, spitfire.SpitfireLazy, pages)
	buf := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pid := uint64(i*7919) % pages
		h, err := bm.FetchPage(ctx, pid, spitfire.ReadIntent)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.ReadAt(ctx, 0, buf); err != nil {
			b.Fatal(err)
		}
		h.Release()
	}
	b.ReportMetric(float64(ctx.Clock.Now())/float64(b.N), "simulated-ns/op")
}

// BenchmarkFetchChurnParallel exercises the concurrent latching protocol.
func BenchmarkFetchChurnParallel(b *testing.B) {
	const pages = 512
	bm, _ := benchBM(b, spitfire.SpitfireLazy, pages)
	var worker atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		w := worker.Add(1) - 1
		ctx := spitfire.NewCtx(uint64(w) + 100)
		rng := uint64(w)*2654435761 + 1
		buf := make([]byte, 1024)
		for pb.Next() {
			rng = rng*6364136223846793005 + 1442695040888963407
			pid := (rng >> 33) % pages
			h, err := bm.FetchPage(ctx, pid, spitfire.ReadIntent)
			if err != nil {
				b.Error(err)
				return
			}
			if err := h.ReadAt(ctx, 0, buf); err != nil {
				b.Error(err)
				h.Release()
				return
			}
			h.Release()
		}
	})
}

// BenchmarkFetchParallel measures the multi-worker fetch/eviction path with
// the pools unsharded (shards=1, the old global CLOCK hand + free list) and
// sharded GOMAXPROCS ways (the facade default). The working set is far
// beyond DRAM so every worker continuously allocates frames, which is the
// path the per-shard free lists and work-stealing exist for. On a single
// CPU the two runs are expected to be within noise of each other (there is
// no contention to shed); the shards=1 baseline is still worth keeping as
// the regression reference.
func BenchmarkFetchParallel(b *testing.B) {
	const pages = 512
	for _, shards := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			bm, err := spitfire.New(spitfire.Config{
				DRAMBytes: 16 * spitfire.PageSize,
				NVMBytes:  64 * (spitfire.PageSize + 64),
				Policy:    spitfire.SpitfireLazy,
				Shards:    shards,
				Cleaner:   spitfire.CleanerConfig{Disable: true},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(bm.Close)
			seedCtx := spitfire.NewCtx(1)
			seed := make([]byte, spitfire.PageSize)
			for pid := uint64(0); pid < pages; pid++ {
				if err := bm.SeedPage(seedCtx, pid, seed); err != nil {
					b.Fatal(err)
				}
			}
			var worker atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := worker.Add(1) - 1
				ctx := spitfire.NewCtx(uint64(w) + 100)
				rng := uint64(w)*2654435761 + 1
				buf := make([]byte, 1024)
				for pb.Next() {
					rng = rng*6364136223846793005 + 1442695040888963407
					pid := (rng >> 33) % pages
					h, err := bm.FetchPage(ctx, pid, spitfire.ReadIntent)
					if err != nil {
						b.Error(err)
						return
					}
					if err := h.ReadAt(ctx, 0, buf); err != nil {
						b.Error(err)
						h.Release()
						return
					}
					h.Release()
				}
			})
		})
	}
}

// BenchmarkWALAppend measures the commit path: one update record plus the
// NVM-buffer persist.
func BenchmarkWALAppend(b *testing.B) {
	pm := spitfire.NewPMem(spitfire.PMemOptions{Size: 1 << 22})
	w, err := spitfire.NewWAL(spitfire.WALOptions{Buffer: pm, Store: spitfire.NewMemLog(nil)})
	if err != nil {
		b.Fatal(err)
	}
	ctx := spitfire.NewCtx(1)
	rec := &spitfire.LogRecord{TxnID: 1, Before: make([]byte, 128), After: make([]byte, 128)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(ctx.Clock, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// discardLog is a LogStore that throws flushed bytes away. The parallel
// append benchmark uses it so wall-clock time measures the commit path's
// latch hand-offs, not the benchmark machine's memory bandwidth replaying
// SSD writes into an ever-growing in-memory log.
type discardLog struct{}

func (discardLog) Append(*vclock.Clock, []byte) error    { return nil }
func (discardLog) ReadAll(*vclock.Clock) ([]byte, error) { return nil, nil }
func (discardLog) Truncate(*vclock.Clock) error          { return nil }

// BenchmarkWALAppendParallel measures the multi-worker commit path with the
// append mutex on it (shards=1, the old global-lock behavior) and off it
// (shards=4, worker-affine shards + group commit). Records carry small
// before/after images so the benchmark is dominated by the latch hand-off a
// commit record pays, not by memmove of page images. The shards=4 numbers
// tune spitfire.RecommendedWALShards.
func BenchmarkWALAppendParallel(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			pm := spitfire.NewPMem(spitfire.PMemOptions{Size: 1 << 26})
			w, err := spitfire.NewWAL(spitfire.WALOptions{
				Buffer: pm, Store: discardLog{}, Shards: shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			var worker atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				wi := worker.Add(1) - 1
				ctx := spitfire.NewCtx(uint64(wi) + 100)
				// Per-goroutine record: Append assigns rec.LSN in place.
				rec := &spitfire.LogRecord{TxnID: uint64(wi),
					Before: make([]byte, 16), After: make([]byte, 16)}
				for pb.Next() {
					if _, err := w.Append(ctx.Clock, rec); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkEngineUpdate measures a full transactional update (fetch + MVTO
// + WAL + in-place write + commit).
func BenchmarkEngineUpdate(b *testing.B) {
	bm, err := spitfire.New(spitfire.Config{
		DRAMBytes: 16 * spitfire.PageSize,
		NVMBytes:  64 * (spitfire.PageSize + 64),
		Policy:    spitfire.SpitfireLazy,
		Cleaner:   spitfire.CleanerConfig{Disable: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(bm.Close)
	pm := spitfire.NewPMem(spitfire.PMemOptions{Size: 1 << 22})
	w, err := spitfire.NewWAL(spitfire.WALOptions{Buffer: pm, Store: spitfire.NewMemLog(nil)})
	if err != nil {
		b.Fatal(err)
	}
	db, err := spitfire.OpenDB(spitfire.DBOptions{BM: bm, WAL: w})
	if err != nil {
		b.Fatal(err)
	}
	tb, err := db.CreateTable(1, "kv", 256)
	if err != nil {
		b.Fatal(err)
	}
	ctx := spitfire.NewCtx(1)
	const keys = 256
	if err := tb.Load(ctx, keys, func(i uint64, p []byte) uint64 { return i }); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := db.Begin()
		if err := tb.Update(ctx, txn, uint64(i)%keys, payload); err != nil {
			b.Fatal(err)
		}
		if err := txn.Commit(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation beyond the paper: per-policy fetch cost under churn, isolating
// the migration-policy overhead the paper's Figure 12 folds into workloads.
func BenchmarkPolicyChurn(b *testing.B) {
	for _, pc := range []struct {
		name string
		p    spitfire.Policy
	}{
		{"Hymem", spitfire.Hymem},
		{"Eager", spitfire.SpitfireEager},
		{"Lazy", spitfire.SpitfireLazy},
	} {
		b.Run(pc.name, func(b *testing.B) {
			const pages = 256
			bm, ctx := benchBM(b, pc.p, pages)
			buf := make([]byte, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pid := uint64(i*7919) % pages
				h, err := bm.FetchPage(ctx, pid, spitfire.WriteIntent)
				if err != nil {
					b.Fatal(err)
				}
				if err := h.WriteAt(ctx, 0, buf); err != nil {
					b.Fatal(err)
				}
				h.Release()
			}
			b.ReportMetric(float64(ctx.Clock.Now())/float64(b.N), "simulated-ns/op")
		})
	}
}

// Ablation: admission-queue sizing (§6.5 found ½ of NVM pages to work
// well). Reported metric is the simulated time per operation — lower is
// better.
func BenchmarkAdmissionQueueSize(b *testing.B) {
	for _, frac := range []float64{0.125, 0.5, 1.0} {
		b.Run(fmt.Sprintf("frac=%g", frac), func(b *testing.B) {
			const pages = 256
			nvmFrames := 64
			bm, err := spitfire.New(spitfire.Config{
				DRAMBytes:              16 * spitfire.PageSize,
				NVMBytes:               int64(nvmFrames) * (spitfire.PageSize + 64),
				Policy:                 spitfire.Hymem,
				AdmissionQueueCapacity: int(float64(nvmFrames) * frac),
				Cleaner:                spitfire.CleanerConfig{Disable: true},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(bm.Close)
			ctx := spitfire.NewCtx(1)
			buf := make([]byte, spitfire.PageSize)
			for pid := uint64(0); pid < pages; pid++ {
				if err := bm.SeedPage(ctx, pid, buf); err != nil {
					b.Fatal(err)
				}
			}
			small := make([]byte, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pid := uint64(i*7919) % pages
				h, err := bm.FetchPage(ctx, pid, spitfire.WriteIntent)
				if err != nil {
					b.Fatal(err)
				}
				if err := h.WriteAt(ctx, 0, small); err != nil {
					b.Fatal(err)
				}
				h.Release()
			}
			b.ReportMetric(float64(ctx.Clock.Now())/float64(b.N), "simulated-ns/op")
		})
	}
}

func BenchmarkExtraWear(b *testing.B) { runExperiment(b, "extra-wear") }

// cleanerBurst is the burst length of the cleaner benchmarks and
// cleanerIdle the think-time gap between bursts. The watermarks are sized so
// one burst of dirty misses fits inside the pre-cleaned free-list stock.
const (
	cleanerBurst = 8
	cleanerIdle  = 250 * time.Microsecond
)

// cleanerBenchBM builds the write-churn manager for the cleaner benchmarks.
func cleanerBenchBM(b *testing.B, on bool, pages int) *spitfire.BufferManager {
	b.Helper()
	cfg := spitfire.Config{
		DRAMBytes: 16 * spitfire.PageSize,
		NVMBytes:  64 * (spitfire.PageSize + 64),
		Policy:    spitfire.SpitfireLazy,
	}
	if on {
		cfg.Cleaner = spitfire.CleanerConfig{
			Enable:    true,
			LowWater:  6,
			HighWater: 12,
			BatchSize: 16,
		}
	} else {
		cfg.Cleaner = spitfire.CleanerConfig{Disable: true}
	}
	bm, err := spitfire.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(bm.Close)
	ctx := spitfire.NewCtx(1)
	buf := make([]byte, spitfire.PageSize)
	for pid := uint64(0); pid < uint64(pages); pid++ {
		if err := bm.SeedPage(ctx, pid, buf); err != nil {
			b.Fatal(err)
		}
	}
	return bm
}

// BenchmarkFetchChurnCleaner is the headline number for the background
// cleaner: a bursty dirty-churn workload (every fetch writes, every eviction
// needs a write-back) with the cleaner off (inline eviction on the fetch
// path) vs on (pre-cleaned frames popped from the free list). The idle gaps
// between bursts model think time and are excluded from the timer — they are
// when the cleaner pre-cleans, so the timed fetches compare inline eviction
// against free-list pops. fg-evicts/op and pre-cleaned/op show the eviction
// work shifting off the foreground path.
func BenchmarkFetchChurnCleaner(b *testing.B) {
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("cleaner=%t", on), func(b *testing.B) {
			const pages = 256
			bm := cleanerBenchBM(b, on, pages)
			ctx := spitfire.NewCtx(2)
			buf := make([]byte, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%cleanerBurst == 0 && i > 0 {
					b.StopTimer()
					time.Sleep(cleanerIdle)
					b.StartTimer()
				}
				pid := uint64(i*7919) % pages
				h, err := bm.FetchPage(ctx, pid, spitfire.WriteIntent)
				if err != nil {
					b.Fatal(err)
				}
				if err := h.WriteAt(ctx, 0, buf); err != nil {
					b.Fatal(err)
				}
				h.Release()
			}
			b.StopTimer()
			st := bm.Stats()
			b.ReportMetric(float64(st.ForegroundEvicts)/float64(b.N), "fg-evicts/op")
			b.ReportMetric(float64(st.CleanerCleanedDRAM+st.CleanerCleanedNVM)/float64(b.N), "pre-cleaned/op")
		})
	}
}

// BenchmarkFetchChurnCleanerParallel is the same bursty comparison with
// concurrent workers. RunParallel cannot exclude the think time from the
// timer, so the gaps are timed for both variants; the cleaner's win shows as
// eviction work overlapping the (identical) idle time instead of extending
// the bursts.
func BenchmarkFetchChurnCleanerParallel(b *testing.B) {
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("cleaner=%t", on), func(b *testing.B) {
			const pages = 256
			bm := cleanerBenchBM(b, on, pages)
			var worker atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				w := worker.Add(1) - 1
				ctx := spitfire.NewCtx(uint64(w) + 200)
				rng := uint64(w)*2654435761 + 7
				buf := make([]byte, 1024)
				for i := 0; pb.Next(); i++ {
					if i%cleanerBurst == 0 && i > 0 {
						time.Sleep(cleanerIdle)
					}
					rng = rng*6364136223846793005 + 1442695040888963407
					pid := (rng >> 33) % pages
					h, err := bm.FetchPage(ctx, pid, spitfire.WriteIntent)
					if err != nil {
						b.Error(err)
						return
					}
					if err := h.WriteAt(ctx, 0, buf); err != nil {
						b.Error(err)
						h.Release()
						return
					}
					h.Release()
				}
			})
			st := bm.Stats()
			b.ReportMetric(float64(st.ForegroundEvicts)/float64(b.N), "fg-evicts/op")
		})
	}
}
