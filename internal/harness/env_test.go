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
		ElapsedSec:      0.007736629,
		Throughput:      323138.1522882899,
		NVMBytesWritten: 5867520,
		SSDBytesRead:    507904,
		Stats: core.Stats{
			HitDRAM: 1357, HitNVM: 2154, MissSSD: 476,
			NVMToDRAM: 13, SSDToDRAM: 368, SSDToNVM: 108, DRAMToNVM: 161,
			EvictDRAM: 253, ForegroundEvicts: 253,
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

// TestMultiWorkerRunRepeats checks that a multi-worker run is as repeatable
// as a single-worker one: the workers take turns in virtual-time order on one
// goroutine, so the same environment and seeds give the same PointResult,
// down to latency percentiles and buffer-manager counters. Each point is
// built twice and both builds must equal the pinned result.
func TestMultiWorkerRunRepeats(t *testing.T) {
	for _, c := range []struct {
		name             string
		cfg              EnvConfig
		workers, warm, n int
		want             PointResult
	}{
		{
			name: "YCSB-WH, 8 workers",
			cfg: EnvConfig{
				Spec:     engine.Spec{DRAMBytes: 2 * MB, NVMBytes: 8 * MB, Policy: policy.SpitfireLazy},
				Workload: YCSBWH,
				DBBytes:  6 * MB,
			},
			workers: 8, warm: 300, n: 500,
			want: PointResult{
				Committed:       4000,
				ElapsedSec:      0.0158397495,
				Throughput:      252529.2461222319,
				NVMBytesWritten: 15807232, NVMBytesRead: 11785472,
				SSDBytesWritten: 8110080, SSDBytesRead: 32768,
				Inclusivity: 0.08527131782945736,
				Stats: core.Stats{
					HitDRAM: 2006, HitNVM: 3956, MissSSD: 402,
					NVMToDRAM: 36, SSDToDRAM: 318, SSDToNVM: 84, DRAMToNVM: 211,
					EvictDRAM: 226, ForegroundEvicts: 226,
				},
				LatencyMeanNs: 31679.499, LatencyP50Ns: 32767, LatencyP99Ns: 301029,
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
				ElapsedSec:      0.0401007715,
				Throughput:      19949.74086720501,
				NVMBytesWritten: 13825024, NVMBytesRead: 15468288,
				SSDBytesWritten: 5947392, SSDBytesRead: 147456,
				Inclusivity: 0.3624161073825503,
				Stats: core.Stats{
					HitDRAM: 44818, HitNVM: 18842, MissSSD: 126,
					NVMToDRAM: 189, SSDToDRAM: 98, SSDToNVM: 28, DRAMToNVM: 180,
					EvictDRAM: 223, ForegroundEvicts: 223,
				},
				LatencyMeanNs: 200503.8575, LatencyP50Ns: 262143, LatencyP99Ns: 852357,
			},
		},
	} {
		for i := 0; i < 2; i++ {
			e, err := NewEnv(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Warmup(c.workers, c.warm, 5); err != nil {
				t.Fatal(err)
			}
			got, err := e.Run(c.workers, c.n, 6)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("%s, build %d:\n got %#v\nwant %#v", c.name, i, got, c.want)
			}
		}
	}
}
