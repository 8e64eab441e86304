package harness

import (
	"fmt"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/policy"
)

// ExtraCleaner is an extension beyond the paper: it sweeps the background
// page cleaner's watermark/batch settings on a churny write-heavy workload
// and reports, alongside throughput, how much eviction work moved off the
// foreground path (pre-cleaned frames vs foreground-evict fallbacks).
//
// Unlike the paper-shape experiments the cleaner runs on wall-clock time, so
// the simulated-throughput column is observational rather than a
// reproduction target: the cleaner's benefit is wall-clock (see
// BenchmarkFetchChurnCleaner); in virtual time it pays the same device
// traffic from a different clock. The sweep's job is to show the watermark
// protocol working: higher watermarks and bigger batches shift evictions
// from the ForegroundEvicts column into the cleaned/batches columns.
func ExtraCleaner(o Opts) (*Table, error) {
	workers := 4
	ops := o.ops(2000)

	frames := func(bytes int64) int { return int(bytes / core.PageSize) }
	dramBytes := o.sz(2.5)
	nvmBytes := o.sz(10)
	df := frames(dramBytes)

	settings := []struct {
		name string
		cc   core.CleanerConfig
	}{
		{"off (inline eviction)", core.CleanerConfig{}},
		{"defaults (low=n/8 high=n/4 batch=8)", core.CleanerConfig{Enable: true}},
		{"aggressive (low=n/4 high=n/2 batch=8)", core.CleanerConfig{
			Enable: true, LowWater: df / 4, HighWater: df / 2,
		}},
		{"big batches (defaults, batch=32)", core.CleanerConfig{
			Enable: true, BatchSize: 32,
		}},
	}

	t := &Table{
		ID:     "extra-cleaner",
		Title:  "Background cleaner watermark/batch sweep on YCSB-WH (beyond the paper)",
		Header: []string{"cleaner", "kops/s", "pre-cleaned", "batches", "fg evicts", "stalls"},
	}
	for _, s := range settings {
		e, err := NewEnv(EnvConfig{
			DRAMBytes: dramBytes,
			NVMBytes:  nvmBytes,
			Policy:    policy.SpitfireLazy,
			Workload:  YCSBWH,
			DBBytes:   o.sz(40),
			Cleaner:   s.cc,
		})
		if err != nil {
			return nil, err
		}
		res, err := measure(e, workers, 1500, ops, o.seed())
		e.Close()
		if err != nil {
			return nil, err
		}
		st := res.Stats
		t.Rows = append(t.Rows, []string{
			s.name,
			kops(res.Throughput),
			fmt.Sprintf("%d", st.CleanerCleanedDRAM+st.CleanerCleanedNVM),
			fmt.Sprintf("%d", st.CleanerBatches),
			fmt.Sprintf("%d", st.ForegroundEvicts),
			fmt.Sprintf("%d", st.CleanerStalls),
		})
	}
	return t, nil
}
