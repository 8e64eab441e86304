package harness

import (
	"testing"

	"github.com/spitfire-db/spitfire/internal/policy"
)

// TestObsCountersCoverCore: the harness source exports every buffer-manager
// counter, so a counter added to core's table shows up here unasked.
func TestObsCountersCoverCore(t *testing.T) {
	e, err := NewEnv(EnvConfig{
		DRAMBytes: 2 * MB, NVMBytes: 4 * MB,
		Policy: policy.SpitfireLazy, Workload: YCSBRO, DBBytes: MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, s := range e.ObsCounters() {
		have[s.Name] = true
	}
	for _, s := range e.BM.ObsCounters() {
		if !have[s.Name] {
			t.Errorf("harness ObsCounters lacks core sample %q", s.Name)
		}
	}
	for _, own := range []string{"commits", "wal_appends"} {
		if !have[own] {
			t.Errorf("harness ObsCounters lacks its own sample %q", own)
		}
	}
}
