package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"github.com/spitfire-db/spitfire/internal/core"
)

var (
	testRoot      string
	testServerBin string
)

func TestMain(m *testing.M) {
	os.Exit(testMain(m))
}

func testMain(m *testing.M) int {
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	dir, err := os.MkdirTemp("", "spitfire-bench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	testRoot = root
	if testServerBin, err = buildServer(root, dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return m.Run()
}

func quickConfig(workload string, trace bool) *config {
	return &config{workload: workload, seed: 7, seconds: 1, trace: trace, quick: true,
		root: testRoot, serverBin: testServerBin, workers: 2}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and spec.go declare the same workloads and metrics, and
// both stay inside the benchmark contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, spec.go has %v", names, workloadNames)
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, spec.go has %v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs between BENCHMARK.json (%d) and spec.go (%d)", len(spec.PerLayer), len(perLayer))
	}
	if len(workloadNames) < 2 || len(workloadNames) > 8 || len(endToEnd) < 1 || len(endToEnd) > 16 ||
		len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("counts out of range: %d workloads, %d end-to-end, %d per-layer",
			len(workloadNames), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, n := range workloadNames {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	hasSetup := false
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated name %q", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m == metricDef{"setup_s", "s", "lower", m.Bound} && m.Bound > 0)
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better, with a bound")
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if !slices.Equal(spec.Paths, []string{"bench"}) || !slices.Equal(spec.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %v command %v", spec.Paths, spec.Command)
	}
}

// checkResult asserts a run passed its checks and emitted exactly the
// declared metrics, in both directions.
func checkResult(t *testing.T, r *result, defs []metricDef, nonZero bool) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v failed=%d attempted=%d", r.Correct, r.Failed, r.Attempted)
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("declared metric %s was not emitted", d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s: unit %q, declared %q", d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: value %v", d.Name, v.Value)
		case nonZero && v.Value <= 0:
			t.Errorf("%s: value %v, want > 0", d.Name, v.Value)
		}
	}
	for name := range r.Metrics {
		if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.Name == name }) {
			t.Errorf("emitted metric %s is not declared", name)
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line has keys %v", keys)
	}
}

// serversRunning counts processes whose executable is the test's server
// binary, whoever started them.
func serversRunning(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		if exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe")); err == nil && exe == testServerBin {
			n++
		}
	}
	return n
}

func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			r, err := measure(quickConfig(w, false))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, endToEnd, true)
			if n := r.Info["segments"]; n != minSegments {
				t.Errorf("quick run measured %v segments, want %d", n, minSegments)
			}
		})
	}
	if n := serversRunning(t); n != 0 {
		t.Errorf("%d spitfire-serve processes survive the runs", n)
	}
}

func TestTracedRun(t *testing.T) {
	for _, w := range []string{"kv-txn", "serve-http"} {
		t.Run(w, func(t *testing.T) {
			r, err := traced(quickConfig(w, true))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, perLayer, false)
			positive := map[string][]string{
				"kv-txn": {"engine.get_us_p50", "engine.put_us_p50", "engine.rate_1w", "wal.appends_per_op",
					"core.hit_dram_frac", "device.sim_ops_per_s", "btree.get_ns", "cht.get_ns"},
				"serve-http": {"server.handler_us_mean", "server.transport_us_mean", "server.openloop_p50_us",
					"server.rss_start_mb", "wal.appends_per_op"},
			}[w]
			for _, name := range positive {
				if r.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, r.Metrics[name].Value)
				}
			}
			if f := r.Metrics["bench.attributed_frac"].Value; f < 0.9 || f > 1.0001 {
				t.Errorf("bench.attributed_frac = %v, want in [0.9, 1]", f)
			}
			if w == "serve-http" {
				handler, transport := r.Metrics["server.handler_us_mean"].Value, r.Metrics["server.transport_us_mean"].Value
				sum := handler + transport
				if share := r.Metrics["server.transport_share"].Value; math.Abs(share*sum-transport) > 1e-6 {
					t.Errorf("handler + transport = %v does not reproduce transport_share %v", sum, share)
				}
			}

			raw, err := os.ReadFile(filepath.Join(testRoot, "bench", "out", w+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct {
					Ph   string  `json:"ph"`
					Name string  `json:"name"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &trace); err != nil {
				t.Fatalf("trace file does not parse: %v", err)
			}
			spans := 0
			for _, e := range trace.TraceEvents {
				if e.Ph == "X" {
					spans++
				}
			}
			if spans == 0 {
				t.Error("trace file holds no spans")
			}
		})
	}
	if n := serversRunning(t); n != 0 {
		t.Errorf("%d spitfire-serve processes survive the runs", n)
	}
}

// A value changed behind the oracle's back is caught: by the read that meets
// it and by the final audit.
func TestCorruptionIsCaught(t *testing.T) {
	d := newBMDriver(quickConfig("bm-hot", false), nil)
	if err := d.setup(); err != nil {
		t.Fatal(err)
	}
	defer d.close()
	ctx := d.w[0].ctx
	for pid := 0; pid < d.p.pages; pid++ {
		h, err := d.bm.FetchPage(ctx, uint64(pid), core.WriteIntent)
		if err != nil {
			t.Fatal(err)
		}
		var b [1]byte // flip one byte inside unit 0, which worker 0 owns
		if err := h.ReadAt(ctx, 100, b[:]); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xFF
		err = h.WriteAt(ctx, 100, b[:])
		h.Release()
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := d.audit(); err != nil {
		t.Fatal(err)
	}
	_, afterAudit, _ := totals(d.tallies())
	if afterAudit != int64(d.p.pages) {
		t.Errorf("audit flagged %d units, want one per page (%d)", afterAudit, d.p.pages)
	}
	runSegment(d, 1, d.segOps(), nil)
	if _, afterRun, _ := totals(d.tallies()); afterRun == afterAudit {
		t.Error("no read noticed the corrupted units")
	}
}

func TestValueChecks(t *testing.T) {
	o := []*kvOracle{{worker: 0, seq: make([]uint32, 4)}, {worker: 1, seq: make([]uint32, 4)}}
	val := make([]byte, kvValueLen)
	put := func(s stamp) []byte { s.put(val); return val }

	if !o[0].checkValue(2, put(stamp{id: 2, worker: loaderID})) {
		t.Error("the load's value is refused")
	}
	if o[0].checkValue(3, put(stamp{id: 2, worker: loaderID})) {
		t.Error("a value carrying another key passes")
	}
	o[0].seq[2] = 5
	if !o[0].checkValue(2, put(stamp{id: 2, worker: 0, seq: 5})) || o[0].checkValue(2, put(stamp{id: 2, worker: 0, seq: 4})) {
		t.Error("own-write check: latest must pass, stale must fail")
	}
	if !o[0].checkValue(2, put(stamp{id: 2, worker: 1, seq: 9})) {
		t.Error("another worker's value is refused by a reader that cannot know its sequence")
	}
	put(stamp{id: 2, worker: 0, seq: 5})
	val[kvValueLen-1] ^= 1
	if o[0].checkValue(2, val) {
		t.Error("a flipped fill bit passes")
	}

	if auditValue(o, 2, put(stamp{id: 2, worker: loaderID})) {
		t.Error("audit accepts the load's value for a key worker 0 has written")
	}
	if !auditValue(o, 2, put(stamp{id: 2, worker: 0, seq: 5})) || auditValue(o, 2, put(stamp{id: 2, worker: 1, seq: 1})) {
		t.Error("audit must accept a worker's last write and refuse one it never made")
	}
	if !auditValue(o, 1, put(stamp{id: 1, worker: loaderID})) {
		t.Error("audit refuses the load's value for an unwritten key")
	}
}

func TestQuantiles(t *testing.T) {
	var ten []float64
	for i := 1; i <= 10; i++ {
		ten = append(ten, float64(i))
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(ten); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2, 10, 7], n=4) == [1.5, 3.0, 8.5]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2, 10, 7}); q1 != 1.5 || q2 != 3 || q3 != 8.5 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// Ties are spread over [v, v+1): the median of four 7s among 6,7,7,7,7,9
	// sits half way through the run of 7s.
	if got := quantile([]uint32{6, 7, 7, 7, 7, 9}, 0.5); got != 7.5 {
		t.Errorf("interpolated median = %v, want 7.5", got)
	}
}

func TestZipfTable(t *testing.T) {
	const n, draws = 1000, 400_000
	z := newZipfTable(n, 0.9, 3)
	r := newRNG(11)
	count := make([]int, n)
	for i := 0; i < draws; i++ {
		count[z.draw(r)]++
	}
	zeta := 0.0
	for i := 1; i <= n; i++ {
		zeta += 1 / math.Pow(float64(i), 0.9)
	}
	for rank := 0; rank < 3; rank++ {
		want := 1 / math.Pow(float64(rank+1), 0.9) / zeta
		got := float64(count[z.item[rank]]) / draws
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("rank %d drawn with frequency %.4f, want %.4f", rank, got, want)
		}
	}
	a, b := newRNG(5), newRNG(5)
	z2 := newZipfTable(n, 0.9, 3)
	for i := 0; i < 1000; i++ {
		if z.draw(a) != z2.draw(b) {
			t.Fatal("the same seed gives different inputs")
		}
	}
}

// -compare passes two sets that agree and fails one that is past a bound.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS float64) string {
		var envs []*runEnvelope
		for i := 0; i < 5; i++ {
			env := &runEnvelope{Workload: "bm-hot", Correct: true, Metrics: map[string]mvalue{}}
			for _, d := range endToEnd {
				env.Metrics[d.Name] = mvalue{Value: 100 + float64(i), Unit: d.Unit}
			}
			env.Metrics["ops_per_s"] = mvalue{Value: opsPerS + float64(i), Unit: "ops/s"}
			envs = append(envs, env)
		}
		set := benchSet{Schema: "spitfire-bench-set/1",
			Workloads: map[string]*workloadSet{"bm-hot": {Summary: summarize(envs)}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 1000), write("same.json", 990), write("slow.json", 600)
	if code := compareSets(testRoot, a, same); code != 0 {
		t.Errorf("a 1%% difference: exit %d, want 0", code)
	}
	if code := compareSets(testRoot, a, slow); code != 1 {
		t.Errorf("a 40%% throughput loss: exit %d, want 1", code)
	}
}

// In a directory that holds only BENCHMARK.json and the benchmark's own
// files the command fails and prints no result.
func TestCommandFailsWithoutTheProgram(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"BENCHMARK.json", "bench/run.sh", "bench/go.mod", "bench/main.go"} {
		b, err := os.ReadFile(filepath.Join(testRoot, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, f)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "bench/run.sh", "--workload", "bm-hot", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Error("the command succeeded without the program's source")
	}
	if len(out) != 0 {
		t.Errorf("the command printed %q", out)
	}
}
