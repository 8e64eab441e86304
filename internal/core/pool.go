package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"github.com/spitfire-db/spitfire/internal/bitmapclock"
	"github.com/spitfire-db/spitfire/internal/lockcheck"
	"github.com/spitfire-db/spitfire/internal/metrics"
	"github.com/spitfire-db/spitfire/internal/obs"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// frameMeta is the volatile metadata of one buffer frame, padded to a cache
// line of its own: pinning one hot frame must not invalidate its neighbours'
// lines in the other workers' caches.
//
// pins encodes the frame's lifecycle: -1 means frozen (owned exclusively by
// an allocator/evictor/migrator and invisible to fetchers), 0 means resident
// and unpinned, >0 counts pinned users. Frames on the free list are frozen.
//
// pid changes only while the frame is frozen (the one exception is a dead NVM
// tier's detach), so a fetcher that pins the frame and then reads its own
// page id there knows the frame holds that page until it unpins.
type frameMeta struct {
	pid     atomic.Uint64
	pins    atomic.Int32
	dirty   atomic.Bool
	fg      atomic.Pointer[fgState] // fine-grained residency; DRAM full frames only
	clAdmit atomic.Bool             // NVM frames: page was admitted by the background cleaner
	_       [36]byte
}

// tryPin attempts to pin the frame; it fails if the frame is frozen.
func (f *frameMeta) tryPin() bool {
	for {
		p := f.pins.Load()
		if p < 0 {
			return false
		}
		if f.pins.CompareAndSwap(p, p+1) {
			return true
		}
	}
}

// unpin drops one pin.
func (f *frameMeta) unpin() { f.pins.Add(-1) }

// markDirty records a modification by a pinner. It tests before it sets so
// that rewriting an already dirty page leaves the frame's line shared; that
// is safe because dirty is cleared only on a frozen frame, and the caller's
// pin keeps the frame from freezing.
func (f *frameMeta) markDirty() {
	if !f.dirty.Load() {
		f.dirty.Store(true)
	}
}

// tryFreeze attempts to take exclusive ownership of an unpinned frame.
func (f *frameMeta) tryFreeze() bool { return f.pins.CompareAndSwap(0, -1) }

// freezeWait spins until the frame's pin count drains to zero and freezes
// it. It returns false if the wait budget is exhausted or the frame was
// freed/retargeted concurrently (detected via pid change).
func (f *frameMeta) freezeWait(pid PageID) bool {
	for i := 0; i < waitBudget; i++ {
		if f.pid.Load() != pid {
			return false
		}
		if f.tryFreeze() {
			return true
		}
		backoff(i)
	}
	return false
}

// thaw releases exclusive ownership, making the frame pinnable again.
func (f *frameMeta) thaw() { f.pins.Store(0) }

// maxPoolShards caps a pool's shard count (mirroring wal.MaxShards).
const maxPoolShards = 64

// normalizePoolShards clamps a configured shard count so every shard owns at
// least two frames: tiny test pools degrade gracefully to fewer (or one)
// shard instead of spreading a handful of frames across empty partitions.
func normalizePoolShards(shards, nFrames int) int {
	if shards < 1 {
		shards = 1
	}
	if shards > maxPoolShards {
		shards = maxPoolShards
	}
	if lim := nFrames / 2; shards > lim {
		shards = lim
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// poolShard is one shard of a pool's replacement state: a private CLOCK hand
// over the contiguous frame partition [lo, hi) and a free-frame stack. The
// mutex guards only the stack; the clock is lock-free on its own.
//
// The shard mutex has lockcheck rank RankBMShard: a strict leaf that may be
// taken under tier latches (allocation runs under latchD/latchN) but admits
// nothing under it — work-stealing drops one shard's mutex before probing
// the next, so two shard mutexes are never held together.
type poolShard struct {
	mu    sync.Mutex
	free  []int32 // frozen frames, LIFO
	freeN atomic.Int32

	lo, hi int32              // this shard's frame partition [lo, hi)
	clock  *bitmapclock.Clock // over hi-lo shard-local frame indices

	_ [64]byte // pad shards onto separate cache lines
}

// basePool is one buffer pool — DRAM full frames, DRAM mini frames or NVM
// frames — and everything that differs between them: which descriptor slot
// names its frames, how a page leaves it, its counters and its cleaner. The
// allocate-or-evict loop, the foreground assist and the background cleaner
// are written once against it (evict.go, cleaner.go).
//
// Frames are partitioned contiguously across shards; each shard has its own
// CLOCK hand and free-frame stack, and a worker's home shard is its clock's
// creation index modulo the shard count (as for the WAL's append shards).
type basePool struct {
	bm   *BufferManager
	tier obs.TierID // names the pool in trace events and the cleaner's ring

	// slot returns the descriptor field that names a page's frame in this
	// pool. Slots are written under d.mu and read atomically; a reader that
	// did not take d.mu must pin the frame and validate its pid (pinPage).
	slot func(d *descriptor) *atomic.Int32

	// unlink is the tier-specific half of an eviction: under the tier latch
	// (TryLock — d is a second descriptor to the allocating thread) it makes
	// the page in frozen frame v safe to drop and clears the descriptor's
	// slot. (false, nil) is contention, a non-nil error an I/O failure whose
	// retries are already spent; either way the descriptor still owns v.
	unlink func(ctx *Ctx, d *descriptor, v int32) (bool, error)

	stats  *bmStats           // the manager's counter blocks
	st     tierStats          // which of the counters are this pool's
	hEvict *metrics.Histogram // eviction latency; nil when untraced (and for mini frames)

	// assist is how many extra frames an inline eviction reclaims into the
	// free list beyond the one it keeps (see assistBatch); pools with assist
	// zero do not count their inline evictions as ForegroundEvicts either.
	assist int

	cleaner *cleaner // nil unless the background cleaner runs for this pool

	// failed latches when the pool's device fails permanently: nothing
	// allocates from the pool again (NVM only; see degradeNVM).
	failed atomic.Bool

	nFrames int
	meta    []frameMeta
	shards  []poolShard
	per     int // frames per shard (last shard absorbs the remainder)

	// freeLen approximates the total free-frame count across shards; it is
	// maintained outside the shard mutexes, so watermark checks read one
	// atomic instead of sweeping every shard.
	freeLen atomic.Int64
}

// count bumps one of the pool's counters in worker w's block.
func (p *basePool) count(w int, id counter) { p.stats.at(w).c[id].Inc() }

// init sizes a freshly allocated (embedded) basePool in place — the struct
// holds atomics, so it must never be copied.
func (p *basePool) init(nFrames, shards int, stats *bmStats, st tierStats) {
	shards = normalizePoolShards(shards, nFrames)
	ranges := bitmapclock.Ranges(nFrames, shards)
	p.stats, p.st = stats, st
	p.nFrames = nFrames
	p.meta = make([]frameMeta, nFrames)
	p.shards = make([]poolShard, shards)
	p.per = nFrames / shards
	for si := range p.shards {
		sh := &p.shards[si]
		sh.lo, sh.hi = int32(ranges[si][0]), int32(ranges[si][1])
		sh.clock = bitmapclock.New(int(sh.hi - sh.lo))
		sh.free = make([]int32, 0, sh.hi-sh.lo)
		// Push descending so low frame indices pop first.
		for f := sh.hi - 1; f >= sh.lo; f-- {
			sh.free = append(sh.free, f)
		}
		sh.freeN.Store(int32(len(sh.free)))
	}
	for i := range p.meta {
		p.meta[i].pid.Store(InvalidPageID)
		p.meta[i].pins.Store(-1) // free frames are frozen
	}
	p.freeLen.Store(int64(nFrames))
}

// shardOf maps a frame index to its home shard (partitions are contiguous,
// so this is one division; the last shard absorbs the remainder).
func (p *basePool) shardOf(f int32) *poolShard {
	si := int(f) / p.per
	if si >= len(p.shards) {
		si = len(p.shards) - 1
	}
	return &p.shards[si]
}

// home returns the worker's home shard: its allocations, releases and CLOCK
// sweeps concentrate on one shard's cache lines.
func (p *basePool) home(ctx *Ctx) int { return ctx.Clock.Worker() % len(p.shards) }

// lockShard and unlockShard route the shard free-list mutex through the
// lockcheck shims so the -tags lockcheck build sees RankBMShard as a leaf.
func (p *basePool) lockShard(sh *poolShard) {
	lockcheck.Acquire(sh, lockcheck.RankBMShard)
	sh.mu.Lock()
}

func (p *basePool) unlockShard(sh *poolShard) {
	sh.mu.Unlock()
	lockcheck.Release(sh, lockcheck.RankBMShard)
}

// freeCount approximates the pool-wide free-list depth (watermarks and
// gauges only; never an invariant).
func (p *basePool) freeCount() int { return int(p.freeLen.Load()) }

// takeFree pops a frame from worker w's home shard, stealing from the other
// shards in wrap order when it runs dry. The frame is frozen. Only one shard
// mutex is ever held at a time.
func (p *basePool) takeFree(w int) (int32, bool) {
	n := len(p.shards)
	home := w % n
	for k := 0; k < n; k++ {
		sh := &p.shards[(home+k)%n]
		if sh.freeN.Load() == 0 {
			continue // empty at a glance; steal onward without locking
		}
		p.lockShard(sh)
		if len(sh.free) == 0 {
			p.unlockShard(sh)
			continue
		}
		f := sh.free[len(sh.free)-1]
		sh.free = sh.free[:len(sh.free)-1]
		sh.freeN.Store(int32(len(sh.free)))
		p.unlockShard(sh)
		p.freeLen.Add(-1)
		if k > 0 {
			p.count(w, p.st.freeSteals)
		}
		return f, true
	}
	return noFrame, false
}

// victim picks a CLOCK victim from the given shard, returning a pool-global
// frame index. Victim selection itself is lock-free.
func (p *basePool) victim(si int) int32 {
	sh := &p.shards[si%len(p.shards)]
	return sh.lo + int32(sh.clock.Victim())
}

// ref and unref route a frame's reference bit to its home shard's CLOCK
// instance.
func (p *basePool) ref(f int32) {
	sh := p.shardOf(f)
	sh.clock.Ref(int(f - sh.lo))
}

func (p *basePool) unref(f int32) {
	sh := p.shardOf(f)
	sh.clock.Unref(int(f - sh.lo))
}

// pinPage is the optimistic half of a hit: f was read from pid's slot without
// d.mu, so it may already name another page's frame. Pin it, then check that
// it is pid's — attach publishes pid before the slot and thaws last, and pid
// is cleared only under a freeze, so a pinned frame tagged pid holds pid until
// the pin is dropped. On failure (frozen, or retargeted) nothing is held.
func (p *basePool) pinPage(f int32, pid PageID) bool {
	m := &p.meta[f]
	if !m.tryPin() {
		return false
	}
	if m.pid.Load() != pid {
		m.unpin()
		return false
	}
	return true
}

// attach publishes frozen frame f — already holding page d's bytes — as d's
// copy in this pool, pinned once for the caller (the inverse of evict). fg is
// the frame's fine-grained residency state, nil for a whole page. Caller holds
// the pool's tier latch on d. The order is what pinPage relies on: tag the
// frame, publish the slot, thaw last.
func (p *basePool) attach(d *descriptor, f int32, dirty bool, fg *fgState) {
	m := &p.meta[f]
	m.pid.Store(d.pid)
	m.dirty.Store(dirty)
	m.fg.Store(fg)
	m.clAdmit.Store(false)
	d.lockMu()
	p.slot(d).Store(f)
	d.unlockMu()
	m.pins.Store(1)
	p.ref(f)
}

// release returns a frozen frame to its home shard's free list. The freeze
// invariant is asserted in debug builds: a frame entering a free list with
// pins != -1 could be surfaced thawed by a cross-shard steal.
func (p *basePool) release(f int32) {
	p.meta[f].pid.Store(InvalidPageID)
	p.meta[f].dirty.Store(false)
	p.meta[f].fg.Store(nil)
	p.meta[f].clAdmit.Store(false)
	if lockcheck.Enabled && p.meta[f].pins.Load() != -1 {
		panic(fmt.Sprintf("core: frame %d pushed to free list with pins=%d, want -1 (frozen)",
			f, p.meta[f].pins.Load()))
	}
	sh := p.shardOf(f)
	sh.clock.Unref(int(f - sh.lo))
	p.lockShard(sh)
	sh.free = append(sh.free, f)
	sh.freeN.Store(int32(len(sh.free)))
	p.unlockShard(sh)
	p.freeLen.Add(1)
}

// dramPool is the DRAM buffer: a plain arena priced by a MemCharger.
// When mini pages are enabled a slice of the budget is carved into mini
// frames (16 loading units each) with their own CLOCK.
type dramPool struct {
	basePool
	arena  []byte
	charge MemCharger

	// mini-page arena (nil when disabled)
	mini *miniPool
}

type miniPool struct {
	basePool
	arena    []byte
	unit     int
	slotSize int // 16*unit bytes of data per mini frame
}

func newDRAMPool(bm *BufferManager, cfg Config, charge MemCharger) (*dramPool, error) {
	budget := cfg.DRAMBytes
	var miniBudget int64
	if cfg.MiniPages {
		miniBudget = budget / miniArenaDivisor
		budget -= miniBudget
	}
	nFrames := int(budget / PageSize)
	if nFrames < 1 {
		return nil, fmt.Errorf("core: DRAM buffer of %d bytes holds no %d-byte page", cfg.DRAMBytes, PageSize)
	}
	dp := &dramPool{
		arena:  make([]byte, int64(nFrames)*PageSize),
		charge: charge,
	}
	dp.init(nFrames, cfg.Shards, &bm.stats, dramStats)
	dp.bm, dp.tier, dp.assist = bm, obs.TierDRAM, fgBatchSteal
	dp.slot = func(d *descriptor) *atomic.Int32 { return &d.dramFrame }
	dp.unlink = bm.unlinkDRAM
	if bm.obs != nil {
		dp.hEvict = bm.obs.Hist(obs.HEvictDRAM)
	}
	if cfg.MiniPages {
		slotSize := miniSlots * cfg.LoadingUnit
		nMini := int(miniBudget / int64(slotSize))
		if nMini < 1 {
			nMini = 1
		}
		mp := &miniPool{
			arena:    make([]byte, nMini*slotSize),
			unit:     cfg.LoadingUnit,
			slotSize: slotSize,
		}
		mp.init(nMini, cfg.Shards, &bm.stats, miniStats)
		mp.bm, mp.tier = bm, obs.TierMini
		mp.slot = func(d *descriptor) *atomic.Int32 { return &d.dramMini }
		mp.unlink = bm.unlinkMini
		dp.mini = mp
	}
	return dp, nil
}

// frame returns the full-frame payload slice.
func (p *dramPool) frame(i int32) []byte {
	off := int64(i) * PageSize
	return p.arena[off : off+PageSize : off+PageSize]
}

// frameOffset is the arena offset of frame i (used for memory-mode pricing).
func (p *dramPool) frameOffset(i int32) int64 { return int64(i) * PageSize }

// data returns the mini-frame payload slice.
func (p *miniPool) data(i int32) []byte {
	off := int(i) * p.slotSize
	return p.arena[off : off+p.slotSize : off+p.slotSize]
}

// nvmPool is the NVM buffer, carved out of a persistent-memory arena. Each
// frame is prefixed with a self-identifying header so recovery can rebuild
// the mapping table by scanning the arena.
type nvmPool struct {
	basePool
	pm *pmem.PMem
}

func newNVMPool(bm *BufferManager, cfg Config) (*nvmPool, error) {
	nFrames := int(cfg.NVMBytes / nvmFrameSlot)
	if nFrames < 1 {
		return nil, fmt.Errorf("core: NVM buffer of %d bytes holds no frame", cfg.NVMBytes)
	}
	pm := cfg.PMem
	if pm == nil {
		pm = pmem.New(pmem.Options{Size: int64(nFrames) * nvmFrameSlot})
	} else if pm.Size() < int64(nFrames)*nvmFrameSlot {
		nFrames = int(pm.Size() / nvmFrameSlot)
		if nFrames < 1 {
			return nil, fmt.Errorf("core: provided pmem arena of %d bytes holds no frame", pm.Size())
		}
	}
	np := &nvmPool{pm: pm}
	np.init(nFrames, cfg.Shards, &bm.stats, nvmStats)
	np.bm, np.tier, np.assist = bm, obs.TierNVM, fgBatchSteal
	np.slot = func(d *descriptor) *atomic.Int32 { return &d.nvmFrame }
	np.unlink = bm.unlinkNVM
	if bm.obs != nil {
		np.hEvict = bm.obs.Hist(obs.HEvictNVM)
	}
	return np, nil
}

// payloadOffset is the arena offset of frame i's page payload.
func (p *nvmPool) payloadOffset(i int32) int64 {
	return int64(i)*nvmFrameSlot + nvmFrameHeaderSize
}

// headerOffset is the arena offset of frame i's header.
func (p *nvmPool) headerOffset(i int32) int64 { return int64(i) * nvmFrameSlot }

// nvmHeaderTable is the CRC polynomial for the frame-header checksum.
var nvmHeaderTable = crc32.MakeTable(crc32.Castagnoli)

// headerSum checksums a frame header's magic and page-id words. The sum is
// stored at bytes [4:8) and validated by readHeader, so a torn header write
// — a crash mid-install — can never resurrect a frame under a garbage pid.
func headerSum(hdr []byte) uint32 {
	s := crc32.Checksum(hdr[0:4], nvmHeaderTable)
	return crc32.Update(s, nvmHeaderTable, hdr[8:16])
}

// writeHeader installs (and persists) frame i's self-identifying header. The
// 16-byte header is [magic u32][crc u32][pid u64]; a fault can tear it, which
// the checksum converts into "invalid frame" rather than silent corruption.
func (p *nvmPool) writeHeader(c *vclock.Clock, i int32, pid PageID, valid bool) error {
	var hdr [16]byte
	magic := uint32(0)
	if valid {
		magic = nvmFrameMagic
	}
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint64(hdr[8:16], pid)
	binary.LittleEndian.PutUint32(hdr[4:8], headerSum(hdr[:]))
	if err := p.pm.WriteErr(c, p.headerOffset(i), hdr[:]); err != nil {
		return fmt.Errorf("core: nvm frame %d header: %w", i, err)
	}
	if err := p.pm.PersistErr(c, p.headerOffset(i), len(hdr)); err != nil {
		return fmt.Errorf("core: nvm frame %d header persist: %w", i, err)
	}
	return nil
}

// readHeader decodes frame i's header without charging a device (recovery
// scans charge separately). Frames with a bad magic or checksum — including
// headers torn by a crash mid-install — read as invalid.
func (p *nvmPool) readHeader(i int32) (pid PageID, valid bool) {
	hdr := p.pm.Bytes(p.headerOffset(i), 16)
	if binary.LittleEndian.Uint32(hdr[0:4]) != nvmFrameMagic {
		return InvalidPageID, false
	}
	if binary.LittleEndian.Uint32(hdr[4:8]) != headerSum(hdr) {
		return InvalidPageID, false
	}
	return binary.LittleEndian.Uint64(hdr[8:16]), true
}

// writePayload stores (and persists) page data into frame i at the given
// offset within the page. A torn write leaves a prefix on media; callers
// retry the full write (the payload only becomes reachable once the header
// is installed after it, so a half-written payload is never served).
func (p *nvmPool) writePayload(c *vclock.Clock, i int32, off int, data []byte) error {
	base := p.payloadOffset(i) + int64(off)
	if err := p.pm.WriteErr(c, base, data); err != nil {
		return fmt.Errorf("core: nvm frame %d write: %w", i, err)
	}
	if err := p.pm.PersistErr(c, base, len(data)); err != nil {
		return fmt.Errorf("core: nvm frame %d persist: %w", i, err)
	}
	return nil
}

// readPayload loads page data from frame i at the given in-page offset.
func (p *nvmPool) readPayload(c *vclock.Clock, i int32, off int, buf []byte) error {
	if err := p.pm.ReadErr(c, p.payloadOffset(i)+int64(off), buf); err != nil {
		return fmt.Errorf("core: nvm frame %d read: %w", i, err)
	}
	return nil
}
