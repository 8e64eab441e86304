// Package harness builds and drives the experiments of the paper's
// evaluation (§6): it builds the machine an engine.Spec describes (simulated
// devices, buffer manager, WAL, engine), loads a workload at the reproduction's
// 1 GB → 1 MB scale, and measures throughput in operations per *simulated*
// second. Every table, figure and claim is a list of points measured by
// Opts.measure; see plan.go and figures.go.
package harness

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/metrics"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/tpcc"
	"github.com/spitfire-db/spitfire/internal/tracereplay"
	"github.com/spitfire-db/spitfire/internal/ycsb"
)

// MB scales the paper's GB figures to the reproduction's MB.
const MB = int64(1) << 20

// WorkloadKind selects the benchmark.
type WorkloadKind int

const (
	YCSBRO WorkloadKind = iota
	YCSBBA
	YCSBWH
	TPCC
	Trace // replays EnvConfig.Trace
)

// String names the workload.
func (k WorkloadKind) String() string {
	switch k {
	case YCSBRO:
		return "YCSB-RO"
	case YCSBBA:
		return "YCSB-BA"
	case YCSBWH:
		return "YCSB-WH"
	case TPCC:
		return "TPC-C"
	case Trace:
		return "trace"
	}
	return fmt.Sprintf("WorkloadKind(%d)", int(k))
}

func (k WorkloadKind) mix() ycsb.Mix {
	switch k {
	case YCSBRO:
		return ycsb.ReadOnly
	case YCSBBA:
		return ycsb.Balanced
	default:
		return ycsb.WriteHeavy
	}
}

// EnvConfig describes one experimental setup: the machine and the workload
// loaded on it.
type EnvConfig struct {
	// Spec is the hierarchy. Its Obs, when nil, falls back to the package
	// default set with SetDefaultObs (used by the cmd binaries so experiment
	// code needs no plumbing); when both are nil, observability is off and
	// the hot paths take their nil-check fast path. A non-nil Obs also
	// installs the Env as its live counter/gauge source.
	engine.Spec

	// Workload and database size.
	Workload WorkloadKind
	DBBytes  int64
	Theta    float64 // YCSB skew (default 0.3)

	// Trace is the operation list a Trace workload replays, over tuples of
	// TraceTuple bytes (default 1000, YCSB-sized).
	Trace      []tracereplay.Op
	TraceTuple int
}

// Env is a loaded experimental environment.
type Env struct {
	cfg EnvConfig
	m   *engine.Machine

	BM *core.BufferManager
	DB *engine.DB

	ycsbW  *ycsb.Workload
	tpccW  *tpcc.Workload
	traceW *traceWorkload

	// commits paces checkpoints (nextCkpt is the count that triggers the
	// next one). It is atomic because the obs source reads it from the
	// /metrics goroutine.
	commits  atomic.Int64
	nextCkpt int64

	// vbase is the simulated-time frontier: the maximum virtual completion
	// time any run's workers reached, raised after every operation. New
	// workers start their clocks at the frontier as their run begins, so
	// they never measure time that belongs to earlier intervals (device
	// bandwidth horizons are global and monotonic). The obs gauges and the
	// tuner hook read it from other goroutines.
	vbase atomic.Int64
}

// checkpointEvery paces the checkpoint every Env runs (§5.2).
const checkpointEvery = 20000

// NewEnv builds the hierarchy and loads the workload.
func NewEnv(cfg EnvConfig) (*Env, error) {
	if cfg.DBBytes <= 0 && cfg.Workload != Trace {
		return nil, errors.New("harness: DBBytes must be positive")
	}
	if cfg.Theta == 0 {
		cfg.Theta = ycsb.DefaultTheta
	}
	if cfg.Obs == nil {
		cfg.Obs = DefaultObs()
	}

	e := &Env{cfg: cfg, m: engine.Build(cfg.Spec)}
	db, err := e.m.Open()
	if err != nil {
		return nil, err
	}
	e.DB, e.BM = db, db.BM()

	switch cfg.Workload {
	case TPCC:
		warehouses := tpcc.DefaultScale.WarehousesForBytes(cfg.DBBytes)
		e.tpccW, err = tpcc.Setup(db, warehouses, tpcc.DefaultScale)
	case Trace:
		e.traceW, err = setupTrace(db, cfg.Trace, cfg.TraceTuple)
	default:
		e.ycsbW, err = ycsb.Setup(db, ycsb.RecordsForBytes(cfg.DBBytes), cfg.Theta)
	}
	if err != nil {
		return nil, err
	}
	e.nextCkpt = checkpointEvery
	if cfg.Obs != nil {
		cfg.Obs.SetSource(e)
	}
	return e, nil
}

// SetPolicy swaps the migration policy between measured points.
func (e *Env) SetPolicy(p policy.Policy) error { return e.BM.SetPolicy(p) }

// deviceSnapshot captures traffic counters for delta measurements.
type deviceSnapshot struct {
	nvmWrites, nvmReads int64
	ssdWrites, ssdReads int64
}

func (e *Env) snapshot() deviceSnapshot {
	var s deviceSnapshot
	if e.m.Data != nil {
		st := e.m.Data.Device().Stats()
		s.nvmWrites, s.nvmReads = st.BytesWritten, st.BytesRead
	}
	st := e.m.Pages.Device().Stats()
	s.ssdWrites, s.ssdReads = st.BytesWritten, st.BytesRead
	return s
}

// PointResult is one measured data point.
type PointResult struct {
	Committed, Aborted int64
	ElapsedSec         float64 // mean per-worker simulated elapsed time
	Throughput         float64 // committed ops per simulated second
	NVMBytesWritten    int64
	NVMBytesRead       int64
	SSDBytesWritten    int64
	SSDBytesRead       int64
	Inclusivity        float64
	Stats              core.Stats

	// Per-operation latency in simulated ns (upper-bounded percentiles
	// from a power-of-two histogram). An extension beyond the paper, which
	// reports only throughput.
	LatencyMeanNs float64
	LatencyP50Ns  int64
	LatencyP99Ns  int64
}

// Run executes opsPerWorker transactions for each of `workers` simulated
// workers and measures virtual-time throughput. Call Warmup first for steady-state
// numbers. The run is marked as the "measure" phase on the obs layer, so
// /snapshot.json can report its histogram window separately from warmup.
func (e *Env) Run(workers, opsPerWorker int, seed uint64) (PointResult, error) {
	if o := e.cfg.Obs; o != nil {
		o.BeginPhase("measure")
		defer o.EndPhase()
	}
	return e.run(workers, opsPerWorker, seed, true)
}

// Warmup drives the workload without measuring (the paper warms until the
// buffer pool is full), marked as the "warmup" phase on the obs layer.
func (e *Env) Warmup(workers, opsPerWorker int, seed uint64) error {
	if o := e.cfg.Obs; o != nil {
		o.BeginPhase("warmup")
		defer o.EndPhase()
	}
	_, err := e.run(workers, opsPerWorker, seed^0xFACE, false)
	return err
}

// WarmupOps sizes a warm-up so the buffers actually fill before measuring
// (the paper warms until the pool is full): roughly eight page touches per
// buffer frame, with floors and a cap that keep small and huge
// configurations reasonable. Two corrections matter:
//
//   - TPC-C transactions touch ~25 tuples each, so far fewer of them fill
//     the same buffer.
//   - A lazy Nr installs only that fraction of misses into the NVM buffer,
//     so filling it needs proportionally more operations (Nr = 0.01 would
//     otherwise leave NVM cold for the whole measurement, hiding the
//     paper's steady-state result).
//
// Returned per worker.
func (e *Env) WarmupOps(workers, requested int) int {
	frames := e.BM.DRAMFrames() + e.BM.NVMFrames()
	total := 8 * frames
	// Lazy-Nr population correction for the NVM tier.
	if nr := e.BM.Policy().Nr; nr > 0 && nr < 1 && e.BM.NVMFrames() > 0 {
		if nr < 0.02 {
			nr = 0.02
		}
		fill := int(float64(8*e.BM.NVMFrames()) / nr)
		if fill > total {
			total = fill
		}
	}
	if e.cfg.Workload == TPCC {
		total /= 16
	}
	if min := requested * workers; total < min {
		total = min
	}
	const capTotal = 1_000_000
	if total > capTotal {
		total = capTotal
	}
	per := total / workers
	if per < 1 {
		per = 1
	}
	return per
}

// simWorker is one simulated worker of a run: its context, its next
// transaction, and how many it has left.
type simWorker struct {
	ctx    *core.Ctx
	op     func() (bool, error)
	counts func() (committed, aborted int64)
	start  int64
	left   int
}

// run drives the workers on the calling goroutine, one transaction at a
// time: the next to run is always the worker whose virtual clock is
// earliest, the lower id breaking ties. The device queues therefore see
// requests in simulated-time order, and a run repeats exactly for the same
// environment and seed. Real goroutines are kept for the tests whose subject
// is the interleaving (torture, -race, lockcheck).
func (e *Env) run(workers, opsPerWorker int, seed uint64, measured bool) (PointResult, error) {
	if workers < 1 {
		return PointResult{}, errors.New("harness: need at least one worker")
	}
	before := e.snapshot()

	var lat *metrics.Histogram
	if measured {
		lat = metrics.NewHistogram()
	}
	ws := make([]simWorker, workers)
	for wi := range ws {
		w := &ws[wi]
		w.left = opsPerWorker
		wseed := seed + uint64(wi)*0x9E37
		switch e.cfg.Workload {
		case TPCC:
			wk := e.tpccW.NewWorker(wseed)
			w.ctx, w.op = wk.Ctx(), wk.Op
			w.counts = func() (int64, int64) { return wk.Committed, wk.Aborted }
		case Trace:
			wk := e.traceW.newWorker(wi, workers, wseed)
			w.ctx, w.op = wk.ctx, wk.op
			w.counts = func() (int64, int64) { return wk.committed, wk.aborted }
			w.left = min(w.left, wk.share()) // a worker stops at the end of its share
		default:
			wk := e.ycsbW.NewWorker(wseed)
			mix := e.cfg.Workload.mix()
			w.ctx, w.op = wk.Ctx(), func() (bool, error) { return wk.Op(mix) }
			w.counts = func() (int64, int64) { return wk.Committed, wk.Aborted }
		}
		// Start at the virtual-time frontier so this interval does not
		// absorb earlier intervals' device-queue horizons.
		w.ctx.Clock.AdvanceTo(e.vbase.Load())
		w.start = w.ctx.Clock.Now()
	}
	for {
		var w *simWorker
		for i := range ws {
			if ws[i].left > 0 && (w == nil || ws[i].ctx.Clock.Now() < w.ctx.Clock.Now()) {
				w = &ws[i]
			}
		}
		if w == nil {
			break
		}
		w.left--
		opStart := w.ctx.Clock.Now()
		ok, err := w.op()
		if err != nil {
			return PointResult{}, err
		}
		now := w.ctx.Clock.Now()
		if lat != nil {
			lat.Observe(now - opStart)
		}
		e.advanceFrontier(now) // the live virtual_time_ns gauge follows the run
		if ok {
			if err := e.maybeCheckpoint(w.ctx); err != nil {
				return PointResult{}, err
			}
		}
	}

	var out PointResult
	var sumElapsed int64
	for i := range ws {
		committed, aborted := ws[i].counts()
		out.Committed += committed
		out.Aborted += aborted
		now := ws[i].ctx.Clock.Now()
		sumElapsed += now - ws[i].start
		e.advanceFrontier(now)
	}
	if !measured {
		return out, nil
	}
	after := e.snapshot()
	// Mean worker elapsed, not max: with fixed ops per worker, the max is
	// set by the unluckiest straggler (who, on real hardware, would simply
	// have completed fewer ops in the shared window).
	out.ElapsedSec = float64(sumElapsed) / float64(workers) / 1e9
	if out.ElapsedSec > 0 {
		out.Throughput = float64(out.Committed) / out.ElapsedSec
	}
	out.NVMBytesWritten = after.nvmWrites - before.nvmWrites
	out.NVMBytesRead = after.nvmReads - before.nvmReads
	out.SSDBytesWritten = after.ssdWrites - before.ssdWrites
	out.SSDBytesRead = after.ssdReads - before.ssdReads
	out.Inclusivity = e.BM.Inclusivity()
	out.Stats = e.BM.Stats()
	if lat != nil {
		out.LatencyMeanNs = lat.Mean()
		out.LatencyP50Ns = lat.Percentile(50)
		out.LatencyP99Ns = lat.Percentile(99)
	}
	return out, nil
}

// advanceFrontier raises vbase to now. Only the goroutine that runs the
// Env's intervals writes vbase, so the load and store need no CAS.
func (e *Env) advanceFrontier(now int64) {
	if now > e.vbase.Load() {
		e.vbase.Store(now)
	}
}

// maybeCheckpoint runs the paper's checkpoint (§5.2) every checkpointEvery
// commits: the worker that committed last runs DB.Checkpoint, which flushes
// dirty DRAM pages and truncates the log, so the log and recovery stay
// bounded. NVM-resident pages are never flushed. The checkpointing worker
// pays the simulated cost, which is how the "performance bumps ... caused by
// dirty page flushes" (§6.4) arise. Env.run steps one transaction at a time,
// so no transaction is open here.
func (e *Env) maybeCheckpoint(ctx *core.Ctx) error {
	if e.commits.Add(1) < e.nextCkpt {
		return nil
	}
	e.nextCkpt += checkpointEvery
	if _, err := e.DB.Checkpoint(ctx); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}
