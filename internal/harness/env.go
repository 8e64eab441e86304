// Package harness builds and drives the experiments of the paper's
// evaluation (§6): it assembles a storage hierarchy (simulated devices,
// buffer manager, WAL, engine), loads a workload at the reproduction's
// 1 GB → 1 MB scale, and measures throughput in operations per *simulated*
// second. Every table, figure and claim is a list of points measured by
// Opts.measure; see plan.go and figures.go.
package harness

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/memmode"
	"github.com/spitfire-db/spitfire/internal/metrics"
	"github.com/spitfire-db/spitfire/internal/obs"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/ssd"
	"github.com/spitfire-db/spitfire/internal/tpcc"
	"github.com/spitfire-db/spitfire/internal/vclock"
	"github.com/spitfire-db/spitfire/internal/wal"
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

// EnvConfig describes one experimental setup.
type EnvConfig struct {
	// Buffer capacities (either may be zero to disable the tier).
	DRAMBytes, NVMBytes int64
	Policy              policy.Policy

	// HyMem optimizations.
	FineGrained bool
	LoadingUnit int
	MiniPages   bool

	// MemoryModeDRAM > 0 prices the DRAM buffer as Optane memory mode: a
	// hardware DRAM cache of this size in front of NVM (§6.2). The buffer
	// *capacity* stays DRAMBytes.
	MemoryModeDRAM int64

	// Workload and database size.
	Workload WorkloadKind
	DBBytes  int64
	Theta    float64 // YCSB skew (default 0.3)

	// WAL and checkpointing. WALBuffer defaults to 1 MB; CheckpointEvery
	// flushes dirty DRAM pages after that many commits (default 20000,
	// negative disables). DisableWAL turns logging off entirely (pure
	// buffer-manager experiments). WALShards splits the NVM log buffer into
	// worker-affine append shards with group commit (default 1, the
	// single-buffer layout, so paper-shape experiments stay deterministic).
	WALBuffer       int64
	WALShards       int
	CheckpointEvery int64
	DisableWAL      bool

	// ComputeCost per tuple operation in simulated ns (default 200).
	ComputeCost int64

	// Cleaner configures the background page cleaner. Paper-shape
	// experiments leave it zero (disabled) so simulated-time results stay
	// deterministic; the extra-cleaner sweep turns it on explicitly.
	Cleaner core.CleanerConfig

	// Obs attaches the observability layer to every subsystem the Env
	// assembles (buffer manager, devices, WAL) and installs the Env as the
	// live counter/gauge source. Nil falls back to the package default set
	// with SetDefaultObs (used by the cmd binaries so experiment code needs
	// no plumbing); when both are nil, observability is off and the hot
	// paths take their nil-check fast path.
	Obs *obs.Obs
}

// Env is a loaded experimental environment.
type Env struct {
	cfg EnvConfig

	nvmDev *device.Device // shared by data arena and WAL buffer (may be nil)
	ssdDev *device.Device // shared by page store and log file
	dataPM *pmem.PMem
	walPM  *pmem.PMem
	mem    *memmode.Device

	BM *core.BufferManager
	DB *engine.DB

	ycsbW *ycsb.Workload
	tpccW *tpcc.Workload

	commits  atomic.Int64 // for checkpoint pacing
	nextCkpt atomic.Int64
	ckptMu   sync.Mutex

	// vbase is the simulated-time frontier: the maximum virtual completion
	// time any previous run's workers reached. New workers start their
	// clocks here so they never measure time that belongs to earlier
	// intervals (device bandwidth horizons are global and monotonic).
	vbase atomic.Int64
}

// NewEnv builds the hierarchy and loads the workload.
func NewEnv(cfg EnvConfig) (*Env, error) {
	if cfg.DBBytes <= 0 {
		return nil, errors.New("harness: DBBytes must be positive")
	}
	if cfg.Theta == 0 {
		cfg.Theta = ycsb.DefaultTheta
	}
	if cfg.WALBuffer == 0 {
		cfg.WALBuffer = 1 * MB
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 20000
	}
	if cfg.Obs == nil {
		cfg.Obs = DefaultObs()
	}

	e := &Env{cfg: cfg}
	e.ssdDev = device.New(device.SSDParams)
	disk := ssd.NewMem(e.ssdDev)

	bmCfg := core.Config{
		DRAMBytes:   cfg.DRAMBytes,
		NVMBytes:    cfg.NVMBytes,
		Policy:      cfg.Policy,
		FineGrained: cfg.FineGrained,
		LoadingUnit: cfg.LoadingUnit,
		MiniPages:   cfg.MiniPages,
		SSD:         disk,
		Cleaner:     cfg.Cleaner,
	}
	if cfg.NVMBytes > 0 {
		e.nvmDev = device.New(device.NVMParams)
	}
	if cfg.NVMBytes > 0 {
		e.dataPM = pmem.New(pmem.Options{Size: cfg.NVMBytes, Device: e.nvmDev})
		bmCfg.PMem = e.dataPM
	}
	if cfg.MemoryModeDRAM > 0 {
		e.mem = memmode.New(memmode.Options{DRAMBytes: cfg.MemoryModeDRAM})
		bmCfg.DRAMCharger = memChargerAdapter{e.mem}
	}
	if o := cfg.Obs; o != nil {
		bmCfg.Obs = o
		e.ssdDev.SetLatencyHistograms(o.Hist(obs.HDevSSDRead), o.Hist(obs.HDevSSDWrite))
		if e.nvmDev != nil {
			e.nvmDev.SetLatencyHistograms(o.Hist(obs.HDevNVMRead), o.Hist(obs.HDevNVMWrite))
		}
	}
	bm, err := core.New(bmCfg)
	if err != nil {
		return nil, err
	}
	e.BM = bm

	var w *wal.Manager
	if !cfg.DisableWAL {
		walOpts := wal.Options{Store: wal.NewMemLog(e.ssdDev), Obs: cfg.Obs, Shards: cfg.WALShards}
		if cfg.NVMBytes > 0 {
			// NVM-equipped hierarchies keep the log buffer on NVM: a
			// persisted append *is* the commit (§5.2).
			e.walPM = pmem.New(pmem.Options{Size: cfg.WALBuffer, Device: e.nvmDev})
		} else {
			// Pure DRAM-SSD systems have no persistent buffer: they batch
			// log records in DRAM and group-commit to SSD (§3.2). Model
			// the buffer at DRAM cost and flush in small batches so the
			// SSD carries the commit traffic.
			dramLogDev := device.New(device.DRAMParams)
			e.walPM = pmem.New(pmem.Options{Size: cfg.WALBuffer, Device: dramLogDev})
			walOpts.FlushThreshold = 64 * 1024
		}
		walOpts.Buffer = e.walPM
		w, err = wal.New(walOpts)
		if err != nil {
			return nil, err
		}
	}
	db, err := engine.Open(engine.Options{BM: bm, WAL: w, ComputeCost: cfg.ComputeCost})
	if err != nil {
		return nil, err
	}
	e.DB = db

	switch cfg.Workload {
	case TPCC:
		warehouses := tpcc.DefaultScale.WarehousesForBytes(cfg.DBBytes)
		e.tpccW, err = tpcc.Setup(db, warehouses, tpcc.DefaultScale)
	default:
		e.ycsbW, err = ycsb.Setup(db, ycsb.RecordsForBytes(cfg.DBBytes), cfg.Theta)
	}
	if err != nil {
		return nil, err
	}
	e.nextCkpt.Store(cfg.CheckpointEvery)
	if cfg.Obs != nil {
		cfg.Obs.SetSource(e)
	}
	return e, nil
}

// memChargerAdapter prices DRAM-buffer traffic through the memory-mode
// model.
type memChargerAdapter struct{ d *memmode.Device }

func (a memChargerAdapter) ChargeRead(c *vclock.Clock, off int64, n int)  { a.d.Read(c, off, n) }
func (a memChargerAdapter) ChargeWrite(c *vclock.Clock, off int64, n int) { a.d.Write(c, off, n) }

// SetPolicy swaps the migration policy between measured points.
func (e *Env) SetPolicy(p policy.Policy) error { return e.BM.SetPolicy(p) }

// Close stops the environment's background goroutines (the page cleaners,
// when enabled). Experiments that enable the cleaner must call it so one
// point's cleaner never bleeds into the next.
func (e *Env) Close() { e.BM.Close() }

// deviceSnapshot captures traffic counters for delta measurements.
type deviceSnapshot struct {
	nvmWrites, nvmReads int64
	ssdWrites, ssdReads int64
}

func (e *Env) snapshot() deviceSnapshot {
	var s deviceSnapshot
	if e.nvmDev != nil {
		st := e.nvmDev.Stats()
		s.nvmWrites, s.nvmReads = st.BytesWritten, st.BytesRead
	}
	st := e.ssdDev.Stats()
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

// Run executes opsPerWorker transactions on each of `workers` goroutines
// and measures virtual-time throughput. Call Warmup first for steady-state
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

func (e *Env) run(workers, opsPerWorker int, seed uint64, measured bool) (PointResult, error) {
	if workers < 1 {
		return PointResult{}, errors.New("harness: need at least one worker")
	}
	before := e.snapshot()

	type workerResult struct {
		committed, aborted int64
		elapsed            int64
		err                error
	}
	results := make([]workerResult, workers)
	var lat *metrics.Histogram
	if measured {
		lat = metrics.NewHistogram()
	}
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			r := &results[wi]
			wseed := seed + uint64(wi)*0x9E37
			var ctx *core.Ctx
			var op func() (bool, error)
			switch e.cfg.Workload {
			case TPCC:
				wk := e.tpccW.NewWorker(wseed)
				ctx = wk.Ctx()
				op = wk.Op
				defer func() { r.committed, r.aborted = wk.Committed, wk.Aborted }()
			default:
				wk := e.ycsbW.NewWorker(wseed)
				ctx = wk.Ctx()
				mix := e.cfg.Workload.mix()
				op = func() (bool, error) { return wk.Op(mix) }
				defer func() { r.committed, r.aborted = wk.Committed, wk.Aborted }()
			}
			// Start at the global virtual-time frontier so this interval
			// does not absorb earlier intervals' device-queue horizons.
			ctx.Clock.AdvanceTo(e.vbase.Load())
			start := ctx.Clock.Now()
			for i := 0; i < opsPerWorker; i++ {
				opStart := ctx.Clock.Now()
				ok, err := op()
				if err != nil {
					r.err = err
					return
				}
				if lat != nil {
					lat.Observe(ctx.Clock.Now() - opStart)
				}
				if ok {
					if err := e.maybeCheckpoint(ctx); err != nil {
						r.err = err
						return
					}
				}
			}
			r.elapsed = ctx.Clock.Now() - start
			for {
				cur := e.vbase.Load()
				now := ctx.Clock.Now()
				if now <= cur || e.vbase.CompareAndSwap(cur, now) {
					break
				}
			}
		}(wi)
	}
	wg.Wait()

	var out PointResult
	var sumElapsed int64
	for i := range results {
		if results[i].err != nil {
			return out, results[i].err
		}
		out.Committed += results[i].committed
		out.Aborted += results[i].aborted
		sumElapsed += results[i].elapsed
	}
	if !measured {
		return out, nil
	}
	after := e.snapshot()
	// Mean worker elapsed, not max: with fixed ops per worker, the max is
	// set by the unluckiest straggler (who, on real hardware, would simply
	// have completed fewer ops in the shared window) and carries large
	// scheduling-induced variance at small op counts.
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

// maybeCheckpoint runs the paper's background dirty-page flushing: after
// every CheckpointEvery commits, one worker flushes dirty DRAM pages so the
// log can be truncated and recovery stays bounded (§5.2). NVM-resident
// pages are never flushed. The flushing worker pays the simulated cost,
// which is how the "performance bumps ... caused by dirty page flushes"
// (§6.4) arise.
func (e *Env) maybeCheckpoint(ctx *core.Ctx) error {
	every := e.cfg.CheckpointEvery
	if every <= 0 || e.cfg.DisableWAL {
		return nil
	}
	n := e.commits.Add(1)
	if n < e.nextCkpt.Load() {
		return nil
	}
	if !e.ckptMu.TryLock() {
		return nil // another worker is already checkpointing
	}
	defer e.ckptMu.Unlock()
	if n < e.nextCkpt.Load() {
		return nil
	}
	e.nextCkpt.Add(every)
	if _, err := e.BM.FlushDirtyDRAM(ctx); err != nil {
		return fmt.Errorf("checkpoint flush: %w", err)
	}
	if e.DB.WAL() != nil {
		if err := e.DB.WAL().Flush(ctx.Clock); err != nil {
			return fmt.Errorf("checkpoint wal flush: %w", err)
		}
	}
	return nil
}
