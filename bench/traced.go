package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// tracedPass is what a driver's spanMetrics gets to work from.
type tracedPass struct {
	recs  []*recorder // the traced workers' recorders
	delta counters    // counter deltas over the traced pass
}

// traced is the --trace 1 run: same seed and mix as the untraced run, in
// four passes over one stack, each a fifth of --seconds:
//
//  1. one worker, untraced — the 1-worker rate, allocations per operation
//     and the count-based metrics (one client, no other writer: the counts
//     are as repeatable as the stack allows);
//  2. all workers, untraced — the scaling factor and simulated throughput;
//  3. one worker, traced — a span at every layer boundary the rig can see;
//  4. unit probes of the leaf layers.
//
// It emits every per-layer metric; the ones whose layer the workload does
// not run stay 0.
func traced(cfg *config) (*result, error) {
	t0 := now()
	tp := &tap{}
	d, err := newDriver(cfg, tp)
	if err != nil {
		return nil, err
	}
	defer d.close() // idempotent; the stack is closed early below
	if err := d.setup(); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	m := newMetricSet(perLayer)
	ts := d.tallies()
	budget, minSegs := cfg.seconds/5, 1
	if cfg.quick {
		budget, minSegs = 0, 2
	}
	layer := d.layer()
	inProcess := layer != "server"
	snap := func() (counters, error) {
		c, err := d.snap()
		if err == nil && inProcess {
			addMemStats(c)
		}
		return c, err
	}

	// Pass 1.
	before, err := snap()
	if err != nil {
		return nil, err
	}
	segs, err := pass(d, 1, budget, minSegs, nil, nil)
	if err != nil {
		return nil, err
	}
	after, err := snap()
	if err != nil {
		return nil, err
	}
	delta, ops1 := after.sub(before), sumOps(segs)
	rate1 := median(rates(segs))
	layerCounters(m, delta, ops1)
	if inProcess {
		m.set(layer+".rate_1w", rate1)
		m.set(layer+".allocs_per_op", delta["mallocs"]/ops1)
		m.set("device.sim_ns_per_op", delta["sim_ns_w0"]/ops1)
	}
	if layer == "engine" {
		m.set("engine.alloc_bytes_per_op", delta["alloc_bytes"]/ops1)
	}
	if layer != "core" { // on bm-* a fetch per operation is the driver's doing, not the engine's
		m.set("engine.fetches_per_op", (delta["hit_dram"]+delta["hit_nvm"]+delta["miss"])/ops1)
	}

	// Pass 2.
	before = after
	if segs, err = pass(d, d.workers(), budget, minSegs, nil, nil); err != nil {
		return nil, err
	}
	if after, err = snap(); err != nil {
		return nil, err
	}
	delta2 := after.sub(before)
	contentionCounters(m, delta2, sumOps(segs))
	if inProcess {
		m.set(layer+".scaling_x", median(rates(segs))/rate1)
		simS := delta2["sim_ns"] / float64(d.workers()) / 1e9
		m.set("device.sim_ops_per_s", sumOps(segs)/simS)
	}

	// Pass 3.
	tr := newTracer()
	recs := []*recorder{tr.add("worker-0", d.clock(0))}
	from := marks(ts)
	before = after
	tp.tr.Store(tr)
	segs, err = pass(d, 1, budget, minSegs, recs, nil)
	tp.tr.Store(nil)
	if err != nil {
		return nil, err
	}
	if after, err = snap(); err != nil {
		return nil, err
	}
	p := tracedPass{recs: recs, delta: after.sub(before)}
	self := layerSelf(recs)
	_, _, nSamples := latencyStats(ts, segs, from)
	m.set("bench.samples", float64(nSamples))
	m.set("bench.trace_overhead_frac", 1-median(rates(segs))/rate1)
	var attributed int64
	for l, ns := range self {
		if l != "bench" {
			attributed += ns
		}
	}
	if op := merged(recs, spOp); op.total > 0 {
		m.set("bench.attributed_frac", float64(attributed)/float64(op.total))
	}
	if inProcess {
		m.set(layer+".self_ns_per_op", float64(self[layer])/sumOps(segs))
	}
	if err := d.spanMetrics(m, p); err != nil {
		return nil, err
	}
	if err := d.audit(); err != nil {
		return nil, fmt.Errorf("%s audit: %w", cfg.workload, err)
	}

	// Close the stack before reading the recorders of its background
	// goroutines (they are only safe to read once those have stopped) and
	// before the probes (which want the cores to themselves).
	d.close()
	all := tr.recorders()
	m.set("ssd.read_us_mean", merged(all, spSSDRead).mean()/1e3)
	m.set("ssd.write_us_mean", merged(all, spSSDWrite).mean()/1e3)
	m.set("wal.store_append_us_mean", merged(all, spLogAppend).mean()/1e3)

	// Pass 4.
	probeNs := int64(budget * 1e9 / 9)
	if cfg.quick {
		probeNs = 2e6
	}
	items, frames := d.size()
	if err := runProbes(m, cfg.seed, items, frames, probeNs); err != nil {
		return nil, fmt.Errorf("unit probes: %w", err)
	}
	// What the WAL costs an operation, seen from outside: logging
	// transactions per operation at the probe's price for logging one
	// (an update record and its commit record).
	m.set("wal.self_ns_per_op", delta["wal_commits"]/ops1*m.vals["wal.append_ns"])

	out := filepath.Join(cfg.root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(out, cfg.workload+".trace.json")
	if err := tr.writeChrome(tracePath); err != nil {
		return nil, err
	}
	if a, f, _ := totals(ts); a > 0 {
		m.set("bench.fail_frac", float64(f)/float64(a))
	}
	m.set("bench.wall_s", float64(now()-t0)/1e9)
	r := m.result(ts)
	r.Info["trace_file"] = tracePath
	r.Info["workers"] = d.workers()
	r.Info["seg_ops_per_worker"] = d.segOps()
	return r, nil
}

func sumOps(segs []segment) float64 {
	var n int64
	for _, s := range segs {
		n += s.ops
	}
	return float64(n)
}

// bm-*: the core calls the driver makes itself.
func (d *bmDriver) spanMetrics(m *metricSet, p tracedPass) error {
	fetch := merged(p.recs, spFetch)
	m.set("core.fetch_ns_p50", quantile(fetch.durs, 0.5))
	m.set("core.fetch_ns_p99", quantile(fetch.durs, 0.99))
	class := func(i int) []uint32 {
		var all []uint32
		for _, w := range d.w {
			all = append(all, w.class[i]...)
		}
		return sorted(all)
	}
	m.set("core.fetch_hit_dram_ns_p50", quantile(class(0), 0.5))
	m.set("core.fetch_hit_nvm_ns_p50", quantile(class(1), 0.5))
	m.set("core.fetch_miss_us_p50", quantile(class(2), 0.5)/1e3)
	access := append(merged(p.recs, spRead).durs, merged(p.recs, spWrite).durs...)
	m.set("core.access_ns_p50", quantile(sorted(access), 0.5))
	m.set("core.release_ns_mean", merged(p.recs, spRelease).mean())
	return nil
}

// kv-txn: the engine calls the driver makes itself.
func (d *kvDriver) spanMetrics(m *metricSet, p tracedPass) error {
	get, put := merged(p.recs, spGet), merged(p.recs, spPut)
	m.set("engine.get_us_p50", quantile(get.durs, 0.5)/1e3)
	m.set("engine.get_us_p99", quantile(get.durs, 0.99)/1e3)
	m.set("engine.put_us_p50", quantile(put.durs, 0.5)/1e3)
	m.set("engine.put_us_p99", quantile(put.durs, 0.99)/1e3)
	m.set("engine.scan_us_p50", quantile(merged(p.recs, spScan).durs, 0.5)/1e3)
	m.set("engine.begin_ns_mean", merged(p.recs, spBegin).mean())
	m.set("engine.commit_us_mean", merged(p.recs, spCommit).mean()/1e3)
	var sum int64
	for _, ns := range d.ckptNs {
		sum += ns
	}
	m.set("engine.checkpoint_ms_mean", float64(sum)/float64(len(d.ckptNs))/1e6)
	m.set("engine.checkpoint_retries", float64(d.ckptRetries))
	return nil
}

// serve-http: the client round trip, split into handler and transport by
// the server's own request-latency sums over the same requests, so the two
// means add up to the client mean by construction. Then what only a live
// server can answer: memory, readiness and the open-loop probe.
func (d *serveDriver) spanMetrics(m *metricSet, p tracedPass) error {
	req := merged(p.recs, spRequest)
	client := req.mean() / 1e3
	handler := 0.0
	if n := p.delta["handler_n"]; n > 0 {
		handler = p.delta["handler_ns"] / n / 1e3
	}
	m.set("server.handler_us_mean", handler)
	m.set("server.transport_us_mean", client-handler)
	if client > 0 {
		m.set("server.transport_share", (client-handler)/client)
	}
	m.set("server.lat_p999_us", quantile(req.durs, 0.999)/1e3)
	m.set("server.get_us_p50", quantile(sorted(d.w[0].kind[0]), 0.5)/1e3)
	m.set("server.put_us_p50", quantile(sorted(d.w[0].kind[1]), 0.5)/1e3)

	seconds := d.cfg.seconds / 3
	if d.cfg.quick {
		seconds = 0.25
	}
	lat, late := d.openLoop(seconds)
	m.set("server.openloop_p50_us", quantile(lat, 0.5)/1e3)
	m.set("server.openloop_p99_us", quantile(lat, 0.99)/1e3)
	m.set("server.openloop_late_p99_us", quantile(late, 0.99)/1e3)
	_, end, err := rssMB(d.pid())
	if err != nil {
		return err
	}
	m.set("server.rss_start_mb", d.rssStart)
	m.set("server.rss_growth_mb", end-d.rssStart)
	ready, err := d.ready()
	if err != nil {
		return err
	}
	if ready {
		m.set("server.ready_at_end", 1)
	}
	return nil
}
