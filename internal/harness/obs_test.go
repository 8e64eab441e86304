package harness

import (
	"runtime"
	"testing"

	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/policy"
)

// TestObsCountersCoverCore: the harness source exports every buffer-manager
// counter, so a counter added to core's table shows up here unasked.
func TestObsCountersCoverCore(t *testing.T) {
	e, err := NewEnv(EnvConfig{
		Spec:     engine.Spec{DRAMBytes: 2 * MB, NVMBytes: 4 * MB, Policy: policy.SpitfireLazy},
		Workload: YCSBRO,
		DBBytes:  MB,
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

// TestVirtualTimeGaugeIsLive: the virtual_time_ns gauge follows a run while
// it steps its workers, so a scrape during a point's first warm-up reads the
// frontier reached so far rather than 0 until the warm-up returns.
func TestVirtualTimeGaugeIsLive(t *testing.T) {
	e, err := NewEnv(EnvConfig{
		Spec:     engine.Spec{DRAMBytes: 2 * MB, NVMBytes: 4 * MB, Policy: policy.SpitfireLazy},
		Workload: YCSBRO,
		DBBytes:  MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- e.Warmup(1, 50000, 1) }()
	gauge := func() int64 {
		for _, s := range e.ObsGauges() {
			if s.Name == "virtual_time_ns" {
				return s.Value
			}
		}
		return -1
	}
	for e.commits.Load() == 0 {
		select {
		case err := <-done:
			t.Fatalf("the warm-up ended (err %v) before its first commit", err)
		default:
			runtime.Gosched()
		}
	}
	live, ended := gauge(), false
	select {
	case err := <-done:
		ended = true
		done <- err
	default:
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ended {
		t.Fatal("the warm-up ended before the scrape")
	}
	if live <= 0 {
		t.Fatalf("virtual_time_ns read %d while the warm-up ran, want the frontier so far", live)
	}
	if end := gauge(); end < live {
		t.Fatalf("virtual_time_ns fell from %d to %d", live, end)
	}
}
