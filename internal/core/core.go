// Package core implements Spitfire's multi-threaded, three-tier buffer
// manager (§5 of the paper).
//
// A BufferManager keeps hot pages in a DRAM buffer, warm pages in an NVM
// buffer, and cold pages on SSD. A DRAM-resident mapping table (a concurrent
// hash table) maps each logical page to a *shared page descriptor* holding
// the page's frame locations and three per-tier latches; migrations along a
// data-flow path take only the latches of the two tiers involved, so (for
// example) writing a page back from NVM to SSD never blocks operations on
// the DRAM copy of the same page (§5.2).
//
// Where pages move is decided by the probabilistic migration policy
// ⟨Dr, Dw, Nr, Nw⟩ of §3; what is evicted is decided per buffer by a CLOCK
// replacement policy over a concurrent bitmap. The two mechanisms work in
// tandem to place pages in tiers according to their access frequency.
//
// The manager also implements the optimizations of HyMem (the paper's
// baseline, §2.1) so the ablation study of §6.5 can be reproduced:
// cache-line-grained loading at a configurable unit size, the mini-page
// layout, and the NVM admission queue.
package core

import (
	"errors"
	"fmt"

	"github.com/spitfire-db/spitfire/internal/admission"
	"github.com/spitfire-db/spitfire/internal/cht"
	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/metrics"
	"github.com/spitfire-db/spitfire/internal/obs"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/ssd"
	"github.com/spitfire-db/spitfire/internal/vclock"
	"github.com/spitfire-db/spitfire/internal/zipf"
	"sync"
	"sync/atomic"
)

// PageSize is the database page size (16 KB, as in the paper).
const PageSize = ssd.PageSize

// nvmFrameHeaderSize is the per-frame metadata prefix on NVM frames. The
// header makes NVM frames self-identifying so recovery can rebuild the
// mapping table by scanning the arena (§5.2, "Recovery").
const nvmFrameHeaderSize = 64

// nvmFrameSlot is the arena stride of one NVM frame.
const nvmFrameSlot = nvmFrameHeaderSize + PageSize

// NVMFrameSlot is the exported arena stride, so harnesses can size NVM
// arenas to an exact frame count.
const NVMFrameSlot = nvmFrameSlot

// nvmFrameMagic marks a valid, occupied NVM frame header.
const nvmFrameMagic = 0x53504631 // "SPF1"

// PageID identifies a logical database page. Page pid occupies SSD block pid.
type PageID = uint64

// InvalidPageID is the reserved "no page" value.
const InvalidPageID = ^uint64(0)

// Intent declares why a page is being fetched; it selects which migration
// probability (Dr for reads, Dw for writes) applies on the NVM→DRAM path.
type Intent int

const (
	// ReadIntent fetches a page for reading.
	ReadIntent Intent = iota
	// WriteIntent fetches a page that will be modified.
	WriteIntent
)

// Ctx carries per-worker state through buffer-manager operations: the
// worker's virtual clock (all device costs are charged to it) and its
// private PRNG (all Bernoulli policy trials draw from it). A Ctx must not be
// shared between goroutines.
type Ctx struct {
	Clock *vclock.Clock
	RNG   *zipf.Rand

	scratch []byte // lazily allocated page-size staging buffer
	tuple   []byte // TupleBuf's storage

	// ring is the worker's migration-tracer ring, lazily attached on first
	// instrumented operation against a manager with observability enabled.
	// ringInit distinguishes "not asked yet" from "asked and refused" so a
	// MaxRings-capped worker doesn't hit the registry on every fetch.
	ring     *obs.Ring
	ringInit bool

	// cleaner marks the context as belonging to a background cleaner
	// goroutine. Write-back admission treats cleaner evictions specially:
	// instead of flipping the Nw coin, dirty pages the cleaner pushes out
	// of DRAM consult the NVM admission queue, so the off-critical-path
	// write-back pre-seeds NVM with pages showing re-eviction pressure
	// without letting one cold sweep flood the buffer.
	cleaner bool

	// interrupt, when non-nil, is polled at the top of page-granular entry
	// points (FetchPage, NewPage, MaterializePage). A non-nil return aborts
	// the operation with that error before any device cost is charged — the
	// hook a network front-end uses to cut request deadlines into the
	// buffer-manager call path. The disabled fast path is one nil check.
	interrupt func() error
}

// NewCtx creates a worker context with a fresh clock and the given RNG seed.
func NewCtx(seed uint64) *Ctx {
	return &Ctx{Clock: vclock.New(), RNG: zipf.NewRand(seed)}
}

// SetInterrupt installs (or, with nil, clears) the cancellation hook polled
// at the start of page-granular operations. The hook runs on the worker's
// own goroutine; returning a non-nil error makes the pending operation fail
// with exactly that error. Server front-ends install a hook that reports the
// request context's deadline error, so an expired request stops consuming
// buffer-manager capacity at the next page boundary instead of running to
// completion. The hook must be cleared (or must start returning nil) before
// cleanup work — transaction abort, checkpointing — runs on the same Ctx,
// or that cleanup is interrupted too.
func (ctx *Ctx) SetInterrupt(f func() error) { ctx.interrupt = f }

// interrupted polls the interrupt hook; nil means proceed.
func (ctx *Ctx) interrupted() error {
	if ctx.interrupt == nil {
		return nil
	}
	return ctx.interrupt()
}

// TupleBuf returns the worker's n-byte staging buffer, in which the layer
// above composes a tuple image before handing it to WriteAt and the log. It
// is separate from the page staging buffer migrations use, so an image in it
// survives any buffer-manager call; it holds whatever its last user left and
// is valid until the next TupleBuf call on this Ctx.
func (ctx *Ctx) TupleBuf(n int) []byte {
	if cap(ctx.tuple) < n {
		ctx.tuple = make([]byte, n)
	}
	return ctx.tuple[:n]
}

func (ctx *Ctx) buf() []byte {
	if ctx.scratch == nil {
		ctx.scratch = make([]byte, PageSize)
	}
	return ctx.scratch
}

// bernoulli draws a policy trial. p <= 0 is always false and p >= 1 always
// true, so the degenerate eager/disabled policies are exact.
func (ctx *Ctx) bernoulli(p float64) bool {
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return ctx.RNG.Float64() < p
}

// Config configures a BufferManager.
type Config struct {
	// DRAMBytes and NVMBytes size the two buffers. Either may be zero,
	// which disables that tier (yielding NVM-SSD or DRAM-SSD hierarchies);
	// at least one must be positive.
	DRAMBytes int64
	NVMBytes  int64

	// Policy is the initial migration policy (see policy.Policy). The
	// adaptive tuner may replace it at runtime via SetPolicy.
	Policy policy.Policy

	// FineGrained enables cache-line-grained loading on the NVM→DRAM path
	// (§2.1): DRAM frames backed by an NVM copy fault individual loading
	// units in on demand instead of copying the whole 16 KB page.
	FineGrained bool

	// LoadingUnit is the granularity of fine-grained loading in bytes
	// (Figure 11 sweeps 64–512). Defaults to 256, the Optane media block.
	LoadingUnit int

	// MiniPages enables HyMem's mini-page layout: pages with at most 16
	// resident loading units occupy a small mini frame with a slot
	// directory, transparently promoted to a full frame on overflow.
	// Requires FineGrained. One eighth of DRAMBytes is set aside for the
	// mini frames.
	MiniPages bool

	// Shards partitions each pool's replacement state (CLOCK hands and
	// free lists) into this many worker-affine shards, removing the free-list
	// convoy on multi-core fetch/evict paths. 0 or 1 keeps the single-shard
	// layout (the deterministic default at the core level; the spitfire
	// facade defaults to RecommendedShards, sized from GOMAXPROCS). The
	// count is clamped so every shard owns at least two frames, and capped
	// at 64.
	Shards int

	// Cleaner configures the background page cleaner (DESIGN.md §5-bis).
	// The zero value disables it, keeping core-level simulated-time results
	// deterministic; the spitfire facade enables it by default.
	Cleaner CleanerConfig

	// SSD is the backing store. Defaults to a fresh in-memory store with
	// Table 1 SSD parameters.
	SSD ssd.Store

	// PMem is the NVM arena backing the NVM buffer. Defaults to a fresh
	// arena of NVMBytes. Pass an existing arena to Recover a buffer
	// manager after a simulated crash.
	PMem *pmem.PMem

	// DRAMCharger is the cost model for DRAM buffer traffic. Defaults to a
	// plain device with Table 1 DRAM parameters. The memory-mode
	// experiments (§6.2) inject a memmode-backed charger here.
	DRAMCharger MemCharger

	// Obs attaches the observability layer: per-worker migration tracing
	// and hot-path latency histograms. Nil (the default) disables both; the
	// only residual cost is one pointer nil-check per instrumented
	// operation (see BenchmarkFetchTraced).
	Obs *obs.Obs
}

// MemCharger prices accesses to the DRAM buffer. Offsets are relative to
// the buffer arena, which lets memory-mode simulations track cache lines.
type MemCharger interface {
	ChargeRead(c *vclock.Clock, off int64, n int)
	ChargeWrite(c *vclock.Clock, off int64, n int)
}

// DeviceCharger adapts a plain device.Device to the MemCharger interface.
type DeviceCharger struct{ Dev *device.Device }

// ChargeRead implements MemCharger.
func (d DeviceCharger) ChargeRead(c *vclock.Clock, _ int64, n int) { d.Dev.Read(c, n) }

// ChargeWrite implements MemCharger.
func (d DeviceCharger) ChargeWrite(c *vclock.Clock, _ int64, n int) { d.Dev.Write(c, n) }

// BufferManager is Spitfire's three-tier buffer manager.
type BufferManager struct {
	cfg Config

	table *cht.Map[PageID, *descriptor]
	disk  ssd.Store

	dram *dramPool // nil when the DRAM tier is disabled
	nvm  *nvmPool  // nil when the NVM tier is disabled

	pol      atomic.Pointer[policy.Policy]
	admQueue *admission.Queue // nil only when the NVM tier is disabled

	closeOnce sync.Once

	nextPID atomic.Uint64

	stats bmStats

	// obs and the cached histogram pointers below are nil when observability
	// is disabled; every instrumented path nil-checks bm.obs first.
	obs           *obs.Obs
	hFetchDRAM    *metrics.Histogram
	hFetchMini    *metrics.Histogram
	hFetchNVM     *metrics.Histogram
	hFetchMiss    *metrics.Histogram
	hCleanerBatch *metrics.Histogram
}

// New creates a buffer manager. See Config for the knobs.
func New(cfg Config) (*BufferManager, error) {
	if cfg.DRAMBytes <= 0 && cfg.NVMBytes <= 0 {
		return nil, errors.New("core: at least one of DRAMBytes and NVMBytes must be positive")
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if cfg.LoadingUnit == 0 {
		cfg.LoadingUnit = 256
	}
	if cfg.LoadingUnit < 8 || cfg.LoadingUnit > PageSize || PageSize%cfg.LoadingUnit != 0 {
		return nil, fmt.Errorf("core: loading unit %d must divide the page size", cfg.LoadingUnit)
	}
	if cfg.MiniPages && !cfg.FineGrained {
		return nil, errors.New("core: MiniPages requires FineGrained")
	}
	if cfg.SSD == nil {
		cfg.SSD = ssd.NewMem(nil)
	}
	if err := cfg.Cleaner.validate(); err != nil {
		return nil, err
	}

	bm := &BufferManager{cfg: cfg, disk: cfg.SSD}
	bm.table = cht.New[PageID, *descriptor](cht.Uint64Hash)
	if cfg.Obs != nil {
		bm.obs = cfg.Obs
		bm.hFetchDRAM = cfg.Obs.Hist(obs.HFetchDRAM)
		bm.hFetchMini = cfg.Obs.Hist(obs.HFetchMini)
		bm.hFetchNVM = cfg.Obs.Hist(obs.HFetchNVM)
		bm.hFetchMiss = cfg.Obs.Hist(obs.HFetchMiss)
		bm.hCleanerBatch = cfg.Obs.Hist(obs.HCleanerBatch)
	}
	p := cfg.Policy
	bm.pol.Store(&p)

	if cfg.DRAMBytes > 0 {
		charger := cfg.DRAMCharger
		if charger == nil {
			charger = DeviceCharger{Dev: device.New(device.DRAMParams)}
		}
		dp, err := newDRAMPool(bm, cfg, charger)
		if err != nil {
			return nil, err
		}
		bm.dram = dp
	}
	if cfg.NVMBytes > 0 {
		np, err := newNVMPool(bm, cfg)
		if err != nil {
			return nil, err
		}
		bm.nvm = np
		// Always built when the NVM tier exists: NwAdmissionQueue mode uses
		// it for every admission, and in coin mode the background cleaner
		// feeds it so off-critical-path write-backs only admit pages with
		// demonstrated re-eviction pressure instead of bypassing the Nw coin.
		// Half the NVM buffer's page count is the size §6.5 found to work well.
		bm.admQueue = admission.New(np.nFrames / 2)
	}
	bm.startCleaners()
	return bm, nil
}

// Policy returns the current migration policy.
func (bm *BufferManager) Policy() policy.Policy { return *bm.pol.Load() }

// SetPolicy atomically replaces the migration policy; the adaptive tuner of
// §4 calls this between epochs. After the NVM tier has failed permanently
// the NVM probabilities are forced to zero so no caller can re-route traffic
// to the dead tier. (The admission queue always exists alongside the NVM
// tier, so switching NwMode needs no setup here.)
func (bm *BufferManager) SetPolicy(p policy.Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if bm.nvmDown() {
		p.Nr, p.Nw = 0, 0
		p.NwMode = policy.NwProbabilistic
	}
	bm.pol.Store(&p)
	return nil
}

// Disk returns the SSD store backing the manager.
func (bm *BufferManager) Disk() ssd.Store { return bm.disk }

// PMem returns the NVM arena, or nil if the NVM tier is disabled.
func (bm *BufferManager) PMem() *pmem.PMem {
	if bm.nvm == nil {
		return nil
	}
	return bm.nvm.pm
}

// DRAMFrames and NVMFrames report the capacity of each buffer in pages.
func (bm *BufferManager) DRAMFrames() int {
	if bm.dram == nil {
		return 0
	}
	return bm.dram.nFrames
}

// NVMFrames reports the capacity of the NVM buffer in pages.
func (bm *BufferManager) NVMFrames() int {
	if bm.nvm == nil {
		return 0
	}
	return bm.nvm.nFrames
}

// AllocatePageID reserves a fresh logical page identifier.
func (bm *BufferManager) AllocatePageID() PageID {
	return bm.nextPID.Add(1) - 1
}

// SetNextPageID positions the allocator (used by loaders and recovery).
func (bm *BufferManager) SetNextPageID(pid PageID) { bm.nextPID.Store(pid) }

// NextPageID reports the next identifier AllocatePageID would return.
func (bm *BufferManager) NextPageID() PageID { return bm.nextPID.Load() }
