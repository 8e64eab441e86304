package harness

import (
	"testing"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/policy"
)

func TestRunProducesThroughput(t *testing.T) {
	e, err := NewEnv(EnvConfig{
		Spec:     engine.Spec{DRAMBytes: 4 * MB, NVMBytes: 16 * MB, Policy: policy.SpitfireLazy},
		Workload: YCSBBA,
		DBBytes:  8 * MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Warmup(2, 500, 1); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(2, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 || res.Throughput <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.ElapsedSec <= 0 {
		t.Fatal("virtual time did not advance")
	}
	if res.LatencyP50Ns <= 0 || res.LatencyP99Ns < res.LatencyP50Ns {
		t.Fatalf("latency percentiles implausible: p50=%d p99=%d", res.LatencyP50Ns, res.LatencyP99Ns)
	}
	if res.LatencyMeanNs <= 0 {
		t.Fatal("mean latency missing")
	}
	t.Logf("throughput = %.0f ops/s, p50 = %d ns, p99 = %d ns, inclusivity = %.3f, nvmW = %d KB, ssdR = %d KB",
		res.Throughput, res.LatencyP50Ns, res.LatencyP99Ns, res.Inclusivity, res.NVMBytesWritten/1024, res.SSDBytesRead/1024)
}

// TestCheckpointTruncatesLog: past checkpointEvery commits the harness
// checkpoint truncates the log, so the log holds no more than the commits
// since the checkpoint shipped. The same number of commits from an empty log
// ships lk; the checkpointed log may run ahead of that by at most one log
// buffer, the most a shard holds unshipped.
func TestCheckpointTruncatesLog(t *testing.T) {
	e, err := NewEnv(EnvConfig{
		Spec:     engine.Spec{DRAMBytes: 2 * MB, NVMBytes: 8 * MB, Policy: policy.SpitfireLazy},
		Workload: YCSBWH,
		DBBytes:  4 * MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	log := e.DB.WAL()
	const k = 2000
	l0 := log.LogBytes()
	if _, err := e.Run(1, k, 1); err != nil {
		t.Fatal(err)
	}
	lk := log.LogBytes() - l0
	if _, err := e.Run(1, checkpointEvery, 2); err != nil {
		t.Fatal(err)
	}
	if got, bound := log.LogBytes(), lk+log.BufferBytes(); got > bound {
		t.Fatalf("log holds %d bytes after %d commits; the %d since the checkpoint ship %d (bound %d)",
			got, k+checkpointEvery, k, lk, bound)
	}
}

func TestTPCCEnvRuns(t *testing.T) {
	e, err := NewEnv(EnvConfig{
		Spec:     engine.Spec{DRAMBytes: 4 * MB, NVMBytes: 16 * MB, Policy: policy.SpitfireLazy},
		Workload: TPCC,
		DBBytes:  2 * MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(2, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatalf("no TPC-C transactions committed: %+v", res)
	}
	t.Logf("tpcc throughput = %.0f txn/s (aborted %d)", res.Throughput, res.Aborted)
}

// TestLazyBeatsEagerOnUncachedReads reproduces the paper's headline §6.3
// result in miniature: when the working set exceeds DRAM but fits in NVM,
// the lazy policy (D = 0.01) outperforms eager migration (D = 1).
func TestLazyBeatsEagerOnUncachedReads(t *testing.T) {
	run := func(d float64) float64 {
		e, err := NewEnv(EnvConfig{
			Spec:     engine.Spec{DRAMBytes: 2 * MB, NVMBytes: 16 * MB, Policy: policy.Policy{Dr: d, Dw: d, Nr: 1, Nw: 1}},
			Workload: YCSBRO,
			DBBytes:  12 * MB,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Warmup(4, 2000, 7); err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(4, 3000, 8)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	lazy, eager := run(0.01), run(1)
	t.Logf("lazy = %.0f ops/s, eager = %.0f ops/s (ratio %.2f)", lazy, eager, lazy/eager)
	if lazy <= eager {
		t.Fatalf("lazy (%.0f) did not beat eager (%.0f) on an uncachable read-only workload", lazy, eager)
	}
}

func TestMemoryModeEnv(t *testing.T) {
	e, err := NewEnv(EnvConfig{
		Spec:     engine.Spec{DRAMBytes: 8 * MB, MemoryModeDRAM: 2 * MB, Policy: policy.Policy{Dr: 1, Dw: 1}},
		Workload: YCSBRO,
		DBBytes:  6 * MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(2, 1500, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("memory-mode run committed nothing")
	}
	// Memory mode must have generated NVM traffic (cache misses) even
	// though the BM has no NVM tier.
	if res.NVMBytesRead == 0 && res.NVMBytesWritten == 0 {
		t.Log("note: all accesses hit the memory-mode DRAM cache")
	}
}

func TestInvalidConfigs(t *testing.T) {
	if _, err := NewEnv(EnvConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	e, err := NewEnv(EnvConfig{
		Spec:     engine.Spec{DRAMBytes: 2 * MB, Policy: policy.Policy{Dr: 1, Dw: 1}},
		Workload: YCSBRO,
		DBBytes:  MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(0, 10, 1); err == nil {
		t.Fatal("zero workers accepted")
	}
}

// TestSingleWorkerDeterminism checks the simulator claim: identical
// configuration and seed produce bit-identical single-worker results. The
// numbers are pinned, so a change that moves the single-worker path — the
// path every paper experiment runs — shows up here even when it is itself
// deterministic; CHANGES.md records why each pinned value last moved.
func TestSingleWorkerDeterminism(t *testing.T) {
	run := func() PointResult {
		e, err := NewEnv(EnvConfig{
			Spec:     engine.Spec{DRAMBytes: 2 * MB, NVMBytes: 8 * MB, Policy: policy.SpitfireLazy},
			Workload: YCSBBA,
			DBBytes:  6 * MB,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Warmup(1, 1500, 3); err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(1, 2500, 4)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := PointResult{
		Committed:       2500,
		ElapsedSec:      0.007837262,
		Throughput:      318988.9530297699,
		NVMBytesWritten: 5919488,
		SSDBytesRead:    507904,
		Stats: core.Stats{
			HitDRAM: 1089, HitNVM: 2412, MissSSD: 488,
			NVMToDRAM: 11, SSDToDRAM: 371, SSDToNVM: 117, DRAMToNVM: 171,
			EvictDRAM:      275,
			CleanerWakeups: 30, CleanerBatches: 60, CleanerCleanedDRAM: 275,
		},
	}
	for i := 0; i < 2; i++ {
		got := run()
		if got.Committed != want.Committed || got.Aborted != want.Aborted {
			t.Fatalf("run %d: committed/aborted = %d/%d, want %d/%d",
				i, got.Committed, got.Aborted, want.Committed, want.Aborted)
		}
		if got.ElapsedSec != want.ElapsedSec || got.Throughput != want.Throughput {
			t.Fatalf("run %d: virtual time = %v s, %v ops/s, want %v s, %v ops/s",
				i, got.ElapsedSec, got.Throughput, want.ElapsedSec, want.Throughput)
		}
		if got.NVMBytesWritten != want.NVMBytesWritten || got.SSDBytesRead != want.SSDBytesRead {
			t.Fatalf("run %d: NVM written %d, SSD read %d, want %d, %d",
				i, got.NVMBytesWritten, got.SSDBytesRead, want.NVMBytesWritten, want.SSDBytesRead)
		}
		if got.Stats != want.Stats {
			t.Fatalf("run %d: buffer stats\n got %+v\nwant %+v", i, got.Stats, want.Stats)
		}
	}
}

// ycsbWH8 is an 8-worker YCSB-WH point over a lazy hierarchy.
var ycsbWH8 = EnvConfig{
	Spec:     engine.Spec{DRAMBytes: 2 * MB, NVMBytes: 8 * MB, Policy: policy.SpitfireLazy},
	Workload: YCSBWH,
	DBBytes:  6 * MB,
}

// runPoint builds cfg, warms it on seed 5 and measures n operations per
// worker on seed 6.
func runPoint(t *testing.T, cfg EnvConfig, workers, warm, n int) PointResult {
	t.Helper()
	e, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Warmup(workers, warm, 5); err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(workers, n, 6)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestMultiWorkerRunRepeats checks that a multi-worker run is as repeatable
// as a single-worker one: the workers and the cleaners take turns in
// virtual-time order on one goroutine, so the same environment and seeds
// give the same PointResult, down to latency percentiles and buffer-manager
// counters. Each point is built twice and both builds must equal the pinned
// result.
func TestMultiWorkerRunRepeats(t *testing.T) {
	for _, c := range []struct {
		name             string
		cfg              EnvConfig
		workers, warm, n int
		want             PointResult
	}{
		{
			name: "YCSB-WH, 8 workers", cfg: ycsbWH8,
			workers: 8, warm: 300, n: 500,
			want: PointResult{
				Committed:       4000,
				ElapsedSec:      0.016007896625,
				Throughput:      249876.6760995372,
				NVMBytesWritten: 15949824, NVMBytesRead: 12066816,
				SSDBytesWritten: 8110080, SSDBytesRead: 16384,
				Inclusivity: 0.08527131782945736,
				Stats: core.Stats{
					HitDRAM: 1693, HitNVM: 4267, MissSSD: 402,
					NVMToDRAM: 38, SSDToDRAM: 318, SSDToNVM: 84, DRAMToNVM: 234,
					EvictDRAM:      249,
					CleanerWakeups: 32, CleanerBatches: 50, CleanerCleanedDRAM: 249,
				},
				LatencyMeanNs: 32015.79325, LatencyP50Ns: 32767, LatencyP99Ns: 284806,
			},
		},
		{
			name: "TPC-C, 4 workers",
			cfg: EnvConfig{
				Spec:     engine.Spec{DRAMBytes: 1 * MB, NVMBytes: 4 * MB, Policy: policy.SpitfireLazy},
				Workload: TPCC,
				DBBytes:  2 * MB,
			},
			workers: 4, warm: 100, n: 200,
			want: PointResult{
				Committed:       800,
				ElapsedSec:      0.04254119525,
				Throughput:      18805.301433085617,
				NVMBytesWritten: 14740480, NVMBytesRead: 18586624,
				SSDBytesWritten: 5947392, SSDBytesRead: 180224,
				Inclusivity: 0.31543624161073824,
				Stats: core.Stats{
					HitDRAM: 39467, HitNVM: 24136, MissSSD: 132,
					NVMToDRAM: 240, SSDToDRAM: 105, SSDToNVM: 27, DRAMToNVM: 233,
					EvictDRAM:      291,
					CleanerWakeups: 57, CleanerBatches: 54, CleanerCleanedDRAM: 281,
					ForegroundEvicts: 10,
				},
				LatencyMeanNs: 212705.97625, LatencyP50Ns: 262143, LatencyP99Ns: 884180,
			},
		},
	} {
		for i := 0; i < 2; i++ {
			if got := runPoint(t, c.cfg, c.workers, c.warm, c.n); got != c.want {
				t.Fatalf("%s, build %d:\n got %#v\nwant %#v", c.name, i, got, c.want)
			}
		}
	}
}

// TestHarnessStepsTheCleaner checks that Env.run steps the buffer manager's
// cleaners between its workers, so the 8-worker YCSB-WH point runs cleaner
// batches and its allocations find free frames. Without the cleaners the
// same point evicts inline 226 times.
func TestHarnessStepsTheCleaner(t *testing.T) {
	st := runPoint(t, ycsbWH8, 8, 300, 500).Stats
	if st.CleanerBatches == 0 {
		t.Fatal("no cleaner batch ran: the harness does not step the cleaners")
	}
	if st.ForegroundEvicts >= 226 {
		t.Fatalf("%d foreground evictions, want fewer than the 226 of a run without cleaners", st.ForegroundEvicts)
	}
}
