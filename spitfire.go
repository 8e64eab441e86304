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
// The quickest way in:
//
//	bm, err := spitfire.New(spitfire.Config{
//		DRAMBytes: 64 << 20,
//		NVMBytes:  256 << 20,
//		Policy:    spitfire.SpitfireLazy,
//	})
//	ctx := spitfire.NewCtx(1)
//	pid, h, _ := bm.NewPage(ctx)
//	h.WriteAt(ctx, 0, []byte("hello"))
//	h.Release()
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

// New creates a buffer manager with the background page cleaner running: it
// sets Config.Cleaner, which the experiment harness leaves off for
// the paper's inline eviction. Call BufferManager.Close to stop the cleaner
// goroutines when done.
func New(cfg Config) (*BufferManager, error) {
	cfg.Cleaner = true
	return core.New(cfg)
}

// Recover rebuilds a buffer manager over a surviving NVM arena (§5.2) with
// the cleaner on, as New does; the cleaner starts only after the arena scan.
func Recover(cfg Config) (*BufferManager, error) {
	cfg.Cleaner = true
	return core.Recover(cfg)
}

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
	// DeviceParams are a device's characteristics.
	DeviceParams = device.Params
	// PMem is a simulated persistent-memory arena (clwb/sfence semantics).
	PMem = pmem.PMem
	// PMemOptions configures a PMem arena.
	PMemOptions = pmem.Options
	// SSDStore is the page-granular block device interface.
	SSDStore = ssd.Store
	// Clock is a per-worker virtual clock (simulated nanoseconds).
	Clock = vclock.Clock
	// Rand is the worker-local PRNG used for policy trials and workloads.
	Rand = zipf.Rand
)

// Calibrated device parameter presets.
var (
	DRAMParams = device.DRAMParams
	NVMParams  = device.NVMParams
	SSDParams  = device.SSDParams
)

// NewDevice creates a simulated device.
func NewDevice(p DeviceParams) *Device { return device.New(p) }

// NewPMem creates a persistent-memory arena.
func NewPMem(opts PMemOptions) *PMem { return pmem.New(opts) }

// NewMemSSD creates an in-memory SSD (nil device = Table 1 SSD parameters).
func NewMemSSD(dev *Device) *ssd.MemStore { return ssd.NewMem(dev) }

// NewFileSSD creates a file-backed SSD.
func NewFileSSD(path string, dev *Device) (*ssd.FileStore, error) {
	return ssd.NewFile(path, dev)
}

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
	// in Config.Obs (and WALOptions.Obs), and every hot path reports into
	// it; a nil Obs keeps the zero-overhead fast path.
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
	// RecoverOptions configures full database recovery.
	RecoverOptions = engine.RecoverOptions
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

// NewMemLog creates an in-memory SSD log store.
func NewMemLog(dev *Device) *wal.MemLog { return wal.NewMemLog(dev) }

// NewFileLog creates a file-backed SSD log store.
func NewFileLog(path string, dev *Device) (*wal.FileLog, error) {
	return wal.NewFileLog(path, dev)
}

// RecoverDB recovers a database after a crash: pass a buffer manager
// already rebuilt with Recover, the surviving WAL options, and the schema.
func RecoverDB(ctx *Ctx, opts RecoverOptions) (*DB, *wal.RecoveredLog, error) {
	return engine.Recover(ctx, opts)
}
