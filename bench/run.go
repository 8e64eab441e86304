package main

import (
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"sync"

	"github.com/spitfire-db/spitfire/internal/vclock"
)

// config is one invocation's settings.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	quick     bool   // op counts ÷ 200 and exactly minSegments segments: the test scale
	root      string // checkout root
	serverBin string // spitfire-serve binary (serve-http only)
	workers   int
}

const (
	setupReps   = 3 // set-ups per untraced run (one at test scale); setup_s is their median
	minSegments = 5
	rssSegments = 30 // peak_rss_mb is the reading after this many segments (or the last, if fewer ran)
	quickDiv    = 200
)

// tally is one worker's running account. attempted counts operations and
// output checks alike; failed counts errors, exhausted retries and failed
// checks; retries counts conflict retries that then succeeded or gave up.
type tally struct {
	attempted, failed, retries int64
	lat                        []uint32 // sampled latencies, ns
}

func (t *tally) fail() { t.failed++ }

// driver is one workload: its stack, its workers' state and its op loop.
type driver interface {
	// setup builds the stack (or launches the server), loads the data and
	// warms up; when it returns the next operation is a measured one.
	setup() error
	// workers is the number of closed-loop workers the measured passes run.
	workers() int
	// segOps is the fixed number of operations one worker runs per segment.
	segOps() int
	// run executes n operations as worker w. rec is nil unless the pass is
	// traced. Only worker goroutines call it, one per w at a time.
	run(w, n int, rec *recorder)
	// quiesce runs between segments, with every worker parked.
	quiesce() error
	// tallies exposes the per-worker accounts.
	tallies() []*tally
	// audit checks the final state against the oracle, counting into the
	// tallies. It runs after the last segment.
	audit() error
	// snap reads the cumulative counters the stack exposes.
	snap() (counters, error)
	// pid is the process whose memory is the workload's.
	pid() int
	// close releases the stack and stops every goroutine and process it
	// started. Calling it again is harmless.
	close()

	// The rest serves the traced run. layer is the module the workload's
	// own calls go to; clock is worker w's virtual clock (nil when the
	// stack is another process); size is the item and DRAM frame count the
	// unit probes are sized to; spanMetrics fills the span-derived metrics.
	layer() string
	clock(w int) *vclock.Clock
	size() (items, frames int)
	spanMetrics(m *metricSet, p tracedPass) error
}

// counters is a flat snapshot of cumulative counts; see layerCounters for
// the keys. A workload leaves out what its stack cannot report.
type counters map[string]float64

func (c counters) sub(base counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - base[k]
	}
	return out
}

func newDriver(cfg *config, tp *tap) (driver, error) {
	switch cfg.workload {
	case "bm-hot", "bm-churn":
		return newBMDriver(cfg, tp), nil
	case "kv-txn":
		return newKVDriver(cfg, tp), nil
	case "serve-http":
		return newServeDriver(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

// scaled applies the -quick divisor to an op count.
func (cfg *config) scaled(n int) int {
	if cfg.quick {
		return max(n/quickDiv, 64)
	}
	return n
}

// segment is one measured slice of a run: every worker executes the same
// fixed number of operations, so two commits do identical work per segment
// whatever their speed; how many segments fit is what --seconds decides.
type segment struct {
	wallNs int64
	ops    int64   // successful operations
	mark   []int   // per worker: len(tally.lat) when the segment ended
	rate   float64 // ops per wall second
}

func totals(ts []*tally) (attempted, failed, retries int64) {
	for _, t := range ts {
		attempted += t.attempted
		failed += t.failed
		retries += t.retries
	}
	return
}

// runSegment runs n operations on each of the first workers workers and
// returns the wall time from release to the last one finishing.
func runSegment(d driver, workers, n int, recs []*recorder) segment {
	ts := d.tallies()
	a0, f0, _ := totals(ts)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		var rec *recorder
		if recs != nil {
			rec = recs[w]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			d.run(w, n, rec)
		}()
	}
	t0 := now()
	close(start)
	wg.Wait()
	seg := segment{wallNs: now() - t0}
	a1, f1, _ := totals(ts)
	seg.ops = (a1 - a0) - (f1 - f0)
	seg.rate = float64(seg.ops) / (float64(seg.wallNs) / 1e9)
	seg.mark = marks(ts)
	return seg
}

// pass runs whole segments until at least seconds have gone by (and at
// least minSegs segments), quiescing after each and then calling each, if
// given, with the number of segments done.
func pass(d driver, workers int, seconds float64, minSegs int, recs []*recorder, each func(done int) error) ([]segment, error) {
	var segs []segment
	start := now()
	for len(segs) < minSegs || float64(now()-start) < seconds*1e9 {
		segs = append(segs, runSegment(d, workers, d.segOps(), recs))
		if err := d.quiesce(); err != nil {
			return segs, err
		}
		if each != nil {
			if err := each(len(segs)); err != nil {
				return segs, err
			}
		}
	}
	return segs, nil
}

// latencyStats returns each segment's median and 99th-percentile latency in
// ns, and the number of samples behind them.
func latencyStats(ts []*tally, segs []segment, from []int) (p50s, p99s []float64, n int) {
	prev := from
	var cur []uint32
	for _, s := range segs {
		cur = cur[:0]
		for w, t := range ts {
			cur = append(cur, t.lat[prev[w]:s.mark[w]]...)
		}
		slices.Sort(cur)
		p50s = append(p50s, quantile(cur, 0.5))
		p99s = append(p99s, quantile(cur, 0.99))
		n += len(cur)
		prev = s.mark
	}
	return p50s, p99s, n
}

func marks(ts []*tally) []int {
	m := make([]int, len(ts))
	for i, t := range ts {
		m[i] = len(t.lat)
	}
	return m
}

func rates(segs []segment) []float64 {
	out := make([]float64, len(segs))
	for i, s := range segs {
		out[i] = s.rate
	}
	return out
}

// result is what one run reports; main turns it into the last output line
// and, with -out, into the envelope.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]mvalue `json:"metrics"`
	Info      map[string]any    `json:"-"` // envelope-only detail
}

type mvalue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values for a declared list of metrics; setting a name
// the list does not declare is a bug in the rig and panics.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: defs, vals: make(map[string]float64, len(defs))}
	for _, d := range defs {
		m.vals[d.Name] = 0
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	if _, ok := m.vals[name]; !ok {
		panic("bench: metric " + name + " is not declared in spec.go")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.vals[name] = v
}

func (m *metricSet) result(ts []*tally) *result {
	a, f, _ := totals(ts)
	r := &result{Correct: f == 0, Attempted: a, Failed: f,
		Metrics: make(map[string]mvalue, len(m.defs)), Info: map[string]any{}}
	for _, d := range m.defs {
		r.Metrics[d.Name] = mvalue{Value: m.vals[d.Name], Unit: d.Unit}
	}
	return r
}

// measure is the untraced run: it produces every end-to-end metric.
func measure(cfg *config) (*result, error) {
	var (
		d      driver
		setups []float64
	)
	// Set up several times and report the median: one set-up is a second or
	// two of allocation-heavy work and its time wanders with the host. The
	// last stack built is the one measured.
	reps := setupReps
	if cfg.quick {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if d != nil {
			// Drop the previous stack and hand its memory back before the
			// next one is built, or peak_rss_mb would report two stacks.
			d.close()
			d = nil
			debug.FreeOSMemory()
		}
		t0 := now()
		var err error
		if d, err = newDriver(cfg, nil); err != nil {
			return nil, err
		}
		if err := d.setup(); err != nil {
			d.close()
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, float64(now()-t0)/1e9)
	}
	defer d.close()

	ts := d.tallies()
	from := marks(ts)
	_, _, retries0 := totals(ts)
	t0 := now()
	seconds := cfg.seconds
	if cfg.quick {
		seconds = 0 // exactly minSegments segments
	}
	// Memory is read after a fixed number of segments — a fixed amount of
	// work — not at the end: a server's log and a process's garbage grow
	// with the operations done, and a faster program does more of them in
	// the same --seconds.
	var peak float64
	segs, err := pass(d, d.workers(), seconds, minSegments, nil, func(done int) (err error) {
		if done <= rssSegments {
			peak, _, err = rssMB(d.pid())
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	wall := float64(now()-t0) / 1e9
	if err := d.audit(); err != nil {
		return nil, fmt.Errorf("%s audit: %w", cfg.workload, err)
	}
	p50s, p99s, nSamples := latencyStats(ts, segs, from)

	m := newMetricSet(endToEnd)
	m.set("ops_per_s", median(rates(segs)))
	m.set("lat_p50_us", median(p50s)/1e3)
	// The tail is taken from the quieter quarter of the run. The host only
	// ever lengthens a tail, and on the shared hosts this runs on it does so
	// most of the time: between runs of serve-http the median of the
	// per-segment p99s spread by 20-29 % of its median, their lower quartile
	// by 13-17 %. A change that lengthens the program's own tail moves both.
	m.set("lat_p99_us", lowerQuartile(p99s)/1e3)
	m.set("peak_rss_mb", peak)
	m.set("setup_s", median(setups))
	r := m.result(ts)
	var ops int64
	for _, s := range segs {
		ops += s.ops
	}
	_, _, retries1 := totals(ts)
	r.Info["workers"] = d.workers()
	r.Info["seg_ops_per_worker"] = d.segOps()
	r.Info["segments"] = len(segs)
	r.Info["ops"] = ops
	r.Info["retries"] = retries1 - retries0
	r.Info["segment_rates"] = rates(segs)
	r.Info["segment_p50_us"] = scale(p50s, 1e-3)
	r.Info["segment_p99_us"] = scale(p99s, 1e-3)
	r.Info["setup_s_each"] = setups
	r.Info["measure_wall_s"] = wall
	r.Info["samples"] = nSamples
	return r, nil
}

func scale(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}

// printResult writes the human-readable table and, as the last line of
// standard output, the one JSON object the benchmark contract asks for.
func printResult(cfg *config, r *result, defs []metricDef, line []byte) {
	kind := "end-to-end (tracing off)"
	if cfg.trace {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("# %s seed=%d workers=%v: %s\n", cfg.workload, cfg.seed, r.Info["workers"], kind)
	for _, d := range defs {
		fmt.Printf("%-34s %16.4f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("%-34s %16.6g ratio (%d failed of %d attempted)\n", "fail_frac", frac, r.Failed, r.Attempted)
	for _, k := range []string{"segments", "ops", "samples", "retries", "measure_wall_s"} {
		if v, ok := r.Info[k]; ok {
			fmt.Printf("# %s=%v\n", k, v)
		}
	}
	os.Stdout.Write(append(line, '\n'))
}
