// Package spitfire is a Go implementation of Spitfire, the multi-threaded
// three-tier buffer manager for volatile and non-volatile memory of
// Zhou, Arulraj, Pavlo and Cohen (SIGMOD 2021), together with every
// substrate its evaluation depends on: calibrated device simulators for
// DRAM, Optane DC PMMs and SSD; a probabilistic data-migration policy
// ⟨Dr, Dw, Nr, Nw⟩ with HyMem's admission queue, cache-line-grained loading
// and mini pages; a simulated-annealing policy tuner; NVM-aware write-ahead
// logging and recovery; MVTO transactions; a latch-free-read B+Tree; and
// the YCSB and TPC-C workloads.
//
// The quickest way in: describe the machine, build it, open a database.
//
//	m := spitfire.Build(spitfire.Spec{
//		DRAMBytes: 64 << 20,
//		NVMBytes:  256 << 20,
//		Policy:    spitfire.SpitfireLazy,
//	})
//	db, _ := m.Open()
//	db.BM().StartCleaners()
//	tb, _ := db.CreateTable(1, "t", 64)
//	ctx := spitfire.NewCtx(1)
//	txn := db.Begin()
//	tb.Insert(ctx, txn, 1, make([]byte, 64))
//	txn.Commit(ctx)
//
// Build gives the data arena and the log buffer one NVM device, and the page
// store and the log one SSD, as the paper's machine does (§5.2); the
// experiment harness, the server and the examples all assemble through it.
// New alone builds a buffer manager with no database over it.
//
// Time in this package is *simulated*: device accesses charge calibrated
// nanosecond costs (Table 1 of the paper) to per-worker virtual clocks, so
// measured throughput reflects the modeled storage hierarchy rather than
// the host machine. See DESIGN.md for the calibration and substitution
// notes, and cmd/spitfire-bench for the reproduced evaluation.
package spitfire

import (
	"runtime"

	"github.com/spitfire-db/spitfire/internal/anneal"
	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/obs"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/ssd"
	"github.com/spitfire-db/spitfire/internal/vclock"
	"github.com/spitfire-db/spitfire/internal/wal"
	"github.com/spitfire-db/spitfire/internal/zipf"
)

// PageSize is the database page size (16 KB).
const PageSize = core.PageSize

// Buffer manager core.
type (
	// BufferManager is the three-tier buffer manager (§5 of the paper).
	BufferManager = core.BufferManager
	// Config configures a BufferManager.
	Config = core.Config
	// Ctx carries a worker's virtual clock and PRNG through operations.
	Ctx = core.Ctx
	// Handle is a pinned reference to a buffered page.
	Handle = core.Handle
	// PageID identifies a logical page.
	PageID = core.PageID
	// Intent declares whether a fetch will read or write.
	Intent = core.Intent
	// Tier reports where a pinned copy resides.
	Tier = core.Tier
	// Stats snapshots buffer-manager counters.
	Stats = core.Stats
	// MemCharger prices DRAM-buffer traffic (used by memory-mode setups).
	MemCharger = core.MemCharger
)

// Fetch intents and tiers.
const (
	ReadIntent  = core.ReadIntent
	WriteIntent = core.WriteIntent

	TierDRAM = core.TierDRAM
	TierMini = core.TierMini
	TierNVM  = core.TierNVM
)

// New creates a buffer manager with its page cleaners running on goroutines
// of their own (BufferManager.StartCleaners), as every live process runs
// them; the experiment harness steps the same cleaners in simulated time
// instead. Call BufferManager.Close to stop the cleaner goroutines when done.
func New(cfg Config) (*BufferManager, error) {
	bm, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	bm.StartCleaners()
	return bm, nil
}

// Assembly: one description of a machine and the one constructor.
type (
	// Spec describes a machine: buffer sizes, policy, log buffer.
	Spec = engine.Spec
	// Machine is what survives a crash: devices, NVM arenas, page store and
	// log file. Open and Recover assemble a DB over it; Crash rolls its
	// arenas back.
	Machine = engine.Machine
)

// Build creates the devices and media a Spec describes.
func Build(spec Spec) *Machine { return engine.Build(spec) }

// NewCtx creates a worker context with a fresh virtual clock.
func NewCtx(seed uint64) *Ctx { return core.NewCtx(seed) }

// Migration policies (§3).
type (
	// Policy is the migration-policy tuple ⟨Dr, Dw, Nr, Nw⟩.
	Policy = policy.Policy
	// NwMode selects probabilistic vs admission-queue NVM admission.
	NwMode = policy.NwMode
)

// Table 3 policy presets and modes.
var (
	Hymem         = policy.Hymem
	SpitfireEager = policy.SpitfireEager
	SpitfireLazy  = policy.SpitfireLazy
)

// NVM admission modes.
const (
	NwProbabilistic  = policy.NwProbabilistic
	NwAdmissionQueue = policy.NwAdmissionQueue
)

// Devices and media (Table 1).
type (
	// Device simulates one storage device's latency/bandwidth/price.
	Device = device.Device
	// PMem is a simulated persistent-memory arena (clwb/sfence semantics).
	PMem = pmem.PMem
	// SSDStore is the page-granular block device interface.
	SSDStore = ssd.Store
	// Clock is a per-worker virtual clock (simulated nanoseconds).
	Clock = vclock.Clock
	// Rand is the worker-local PRNG used for policy trials and workloads.
	Rand = zipf.Rand
)

// Fault injection and robustness (DESIGN.md §6b).
type (
	// FaultConfig is the fault mix a device injector draws from: transient
	// read/write errors, torn writes, latency stalls, and fail-after budgets.
	FaultConfig = device.FaultConfig
	// Injector is a seeded-deterministic per-device fault source; attach it
	// with Device.SetFaults.
	Injector = device.Injector
	// FaultStats counts what an injector actually did.
	FaultStats = device.FaultStats
	// CrashSwitch is a machine-wide crash point shared by several injectors:
	// the Nth checked write tears and everything after it fails with
	// ErrCrashed until the harness reboots it.
	CrashSwitch = device.CrashSwitch
	// RecoveryStats counts the damage WAL recovery tolerated (torn tails,
	// checksum mismatches, resync skips, duplicate LSNs).
	RecoveryStats = wal.RecoveryStats
	// RecoveredLog is the completed, parsed log plus the analysis outcome.
	RecoveredLog = wal.RecoveredLog
)

// Typed fault classes. Every injected error wraps exactly one of these;
// classify with errors.Is.
var (
	ErrTransient = device.ErrTransient
	ErrPermanent = device.ErrPermanent
	ErrCrashed   = device.ErrCrashed
	ErrTorn      = device.ErrTorn
)

// NewInjector creates a fault injector with the given mix.
func NewInjector(cfg FaultConfig) *Injector { return device.NewInjector(cfg) }

// NewCrashSwitch creates a disarmed, untripped crash switch.
func NewCrashSwitch() *CrashSwitch { return device.NewCrashSwitch() }

// IsTorn extracts the torn fraction from an error chain.
func IsTorn(err error) (frac float64, ok bool) { return device.IsTorn(err) }

// Observability (DESIGN.md §6c): migration tracing, hot-path latency
// histograms, and live metrics exposition.
type (
	// Obs is the root observability object. Create one with NewObs, pass it
	// in Spec.Obs (or Config.Obs), and every hot path reports into it; a
	// nil Obs keeps the zero-overhead fast path.
	Obs = obs.Obs
	// ObsConfig sizes the observability layer (tracer ring capacity, ring
	// cap).
	ObsConfig = obs.Config
	// ObsServer is the live exposition HTTP server (Prometheus text, JSON
	// snapshots, Chrome trace export, pprof). Start it with Obs.Serve.
	ObsServer = obs.Server
	// ObsSample is one named counter or gauge reading from an ObsSource.
	ObsSample = obs.Sample
	// ObsSource supplies live counters and gauges for the exposition
	// endpoints; install one with Obs.SetSource.
	ObsSource = obs.Source
	// TraceEvent is one tracer event (migration, eviction, WAL append...).
	TraceEvent = obs.Event
	// TraceRing is a per-worker lock-free event ring.
	TraceRing = obs.Ring
)

// NewObs creates an observability instance (zero config takes defaults).
func NewObs(cfg ObsConfig) *Obs { return obs.New(cfg) }

// Adaptive tuning (§4).
type (
	// Tuner runs the simulated-annealing policy search.
	Tuner = anneal.Tuner
	// TunerOptions configures a Tuner.
	TunerOptions = anneal.Options
	// TunerEpochStep describes one completed annealing epoch to the
	// TunerOptions.OnEpoch observer hook.
	TunerEpochStep = anneal.EpochStep
)

// NewTuner creates a policy tuner.
func NewTuner(opts TunerOptions) *Tuner { return anneal.New(opts) }

// WearAwareCost extends the tuner's cost function with an NVM-endurance
// penalty (cost = γ/T + λ·W/T); see Tuner.ObserveWear.
type WearAwareCost = anneal.WearAwareCost

// Storage engine, transactions, logging (§5.2).
type (
	// DB is the storage engine: heap tables + MVTO + WAL over the buffer
	// manager.
	DB = engine.DB
	// DBOptions configures a DB.
	DBOptions = engine.Options
	// Table is a heap table with a B+Tree primary index.
	EngineTable = engine.Table
	// Txn is an MVTO transaction.
	Txn = engine.Txn
	// WAL is the NVM-aware write-ahead log manager.
	WAL = wal.Manager
	// WALOptions configures a WAL.
	WALOptions = wal.Options
	// LogRecord is one WAL record.
	LogRecord = wal.Record
	// TableDef declares a table schema for recovery.
	TableDef = engine.TableDef
)

// Engine errors.
var (
	// ErrNotFound reports a missing key.
	ErrNotFound = engine.ErrNotFound
	// ErrConflict aborts a transaction that lost an MVTO race.
	ErrConflict = engine.ErrConflict
)

// OpenDB opens a storage engine over a buffer manager.
func OpenDB(opts DBOptions) (*DB, error) { return engine.Open(opts) }

// RecommendedWALShards is the WALOptions.Shards value for multi-worker
// commit paths: GOMAXPROCS clamped to [1, wal.MaxShards], one worker-affine
// append shard per schedulable core (commit throughput scaled with the shard
// count up to GOMAXPROCS when the sharded log landed — CHANGES.md, PR 5 —
// while per-shard regions stay large enough that group-commit flushes remain
// batched; bench/'s wal.append_ns times the append today). The WAL's own
// default (Shards = 1) remains the right choice for single-worker and
// determinism-sensitive runs.
func RecommendedWALShards() int {
	return min(max(runtime.GOMAXPROCS(0), 1), wal.MaxShards)
}

// NewWAL creates a write-ahead log manager.
func NewWAL(opts WALOptions) (*WAL, error) { return wal.New(opts) }
