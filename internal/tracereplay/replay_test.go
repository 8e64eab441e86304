package tracereplay_test

import (
	"bytes"
	"testing"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/harness"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/tracereplay"
)

// trace generates and parses a synthetic trace.
func trace(t *testing.T, ops int, keys uint64, theta float64, writePct int, seed uint64) []tracereplay.Op {
	t.Helper()
	var buf bytes.Buffer
	if err := tracereplay.Generate(&buf, ops, keys, theta, writePct, seed); err != nil {
		t.Fatal(err)
	}
	out, err := tracereplay.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// replay runs the whole trace once on a fresh machine built from spec.
func replay(t *testing.T, spec engine.Spec, ops []tracereplay.Op, workers int) harness.PointResult {
	t.Helper()
	e, err := harness.NewEnv(harness.EnvConfig{Spec: spec, Workload: harness.Trace, Trace: ops})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(workers, len(ops), 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestReplay(t *testing.T) {
	ops := trace(t, 800, 128, 0.3, 50, 3)
	res := replay(t, engine.Spec{
		DRAMBytes: 4 * core.PageSize,
		NVMBytes:  16 * core.PageSize,
		Policy:    policy.SpitfireLazy,
	}, ops, 2)
	if res.Committed+res.Aborted != 800 {
		t.Fatalf("committed %d + aborted %d != 800", res.Committed, res.Aborted)
	}
	if res.Throughput <= 0 || res.ElapsedSec <= 0 {
		t.Fatalf("no throughput measured: %+v", res)
	}
	if res.LatencyP99Ns < res.LatencyP50Ns || res.LatencyP50Ns <= 0 {
		t.Fatalf("latency percentiles wrong: %+v", res)
	}
}

// A replay runs in virtual time only, so one trace replayed twice on fresh,
// equal hierarchies gives the same result, counters included, at any worker
// count.
func TestReplayRepeats(t *testing.T) {
	ops := trace(t, 4000, 1500, 0.5, 30, 5)
	spec := engine.Spec{
		DRAMBytes: 8 * core.PageSize,
		NVMBytes:  48 * (core.PageSize + 64),
		Policy:    policy.SpitfireLazy,
	}
	if a, b := replay(t, spec, ops, 4), replay(t, spec, ops, 4); a != b {
		t.Fatalf("two replays of one trace differ:\n%+v\n%+v", a, b)
	}
}

func TestReplayRequiresTrace(t *testing.T) {
	_, err := harness.NewEnv(harness.EnvConfig{
		Spec:     engine.Spec{DRAMBytes: 4 * core.PageSize, Policy: policy.SpitfireLazy},
		Workload: harness.Trace,
	})
	if err == nil {
		t.Fatal("a replay without operations was accepted")
	}
}

// Replaying the same trace on two hierarchies must rank them sensibly: a
// bigger buffer wins on an uncachable trace.
func TestReplayComparesHierarchies(t *testing.T) {
	ops := trace(t, 3000, 2000, 0.3, 10, 9)
	run := func(nvmPages int64) float64 {
		return replay(t, engine.Spec{
			DRAMBytes: 4 * core.PageSize,
			NVMBytes:  nvmPages * (core.PageSize + 64),
			Policy:    policy.SpitfireLazy,
		}, ops, 2).Throughput
	}
	small, big := run(8), run(96)
	if big <= small {
		t.Fatalf("bigger NVM buffer not faster: %v vs %v", big, small)
	}
}
