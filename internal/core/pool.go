package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/spitfire-db/spitfire/internal/bitmapclock"
	"github.com/spitfire-db/spitfire/internal/lockcheck"
	"github.com/spitfire-db/spitfire/internal/metrics"
	"github.com/spitfire-db/spitfire/internal/obs"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/ssd"
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
//
// lent is set on a DRAM full frame or an NVM frame whose page an SSD store
// lent it (ssd.Store.Lend): a DRAM frame's on a miss (❾), an NVM frame's on
// a miss (❼) or on the admission of a lent DRAM frame (❹). It stays set
// until the frame is evicted or released. The frame's bytes are the store's
// page, except the units its write-back mask (diff) names, which writers
// took over into the arena (dramPool.ownUnits, nvmPool.own, under the owning
// flag) and which are the only units of the arena in use. A lent DRAM frame
// is whole (fg nil) and its page has no NVM copy; CheckConsistency asserts
// it. A lent NVM frame keeps its mask durable too, in the word at bytes
// [16:24) of its header slot (nvmPool.storeWord), so that recovery can lend
// the frame its page again (Recover); an NVM frame that owns its page keeps
// ssd.AllUnits there.
//
// diff is a DRAM full frame's or an NVM frame's write-back mask: bit u set
// means unit u of the copy (ssd.UnitSize bytes at u*ssd.UnitSize) may differ
// from the page's SSD image, so a write-back to SSD hands the store only
// those units (ssd.Store.WriteUnits). It may over-report, never under-report;
// on a lent frame it is exact: the units the arena holds.
// A copy loaded from SSD starts at 0 and a whole DRAM copy written to SSD
// returns to 0; writers OR in the units they touch (markDiff, or the
// takeover of a lent frame); a copy made from another copy inherits its mask
// (❻, ❹), and a whole DRAM copy written down to NVM ORs its mask into the
// NVM copy's. Fine-grained and mini copies, new pages and recovered NVM
// frames that own their page carry every bit; the NVM write-throughs of
// fine-grained and mini copies mark the units they write.
// attach stores the initial mask before it publishes the slot; every other
// read or reset happens on a frozen frame, or under owning on a lent frame.
type frameMeta struct {
	pid    atomic.Uint64
	pins   atomic.Int32
	dirty  atomic.Bool
	owning atomic.Bool                    // lent frames: a writer is taking units over
	fg     atomic.Pointer[fgState]        // fine-grained residency; DRAM full frames only
	lent   atomic.Pointer[[PageSize]byte] // DRAM full and NVM frames: the store's page, or nil
	// hdr stages an NVM frame's header for writeHeader, which only the
	// frame's exclusive owner calls (the frame is frozen), so the one copy
	// per frame needs no lock and the header no allocation.
	hdr  [16]byte
	diff atomic.Uint64
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

// unpin drops one pin. A count that goes negative means a pin was dropped
// twice — a handle released twice, or through a copy — and would read as
// frozen, so it panics in every build.
func (f *frameMeta) unpin() {
	if f.pins.Add(-1) < 0 {
		panic("core: frame unpinned more times than it was pinned")
	}
}

// markDirty records a modification by a pinner. It tests before it sets so
// that rewriting an already dirty page leaves the frame's line shared; that
// is safe because dirty is cleared only on a frozen frame, and the caller's
// pin keeps the frame from freezing.
func (f *frameMeta) markDirty() {
	if !f.dirty.Load() {
		f.dirty.Store(true)
	}
}

// markDiff records that the units in mask may now differ from the page's SSD
// image. Like markDirty it tests before it sets, so a rewrite of the same
// units leaves the frame's line shared.
func (f *frameMeta) markDiff(mask uint64) {
	if f.diff.Load()&mask != mask {
		f.diff.Or(mask)
	}
}

// unitMask is the write-back mask of the units that bytes [off, off+n) of a
// page touch (n > 0).
func unitMask(off, n int) uint64 {
	first, last := off/ssd.UnitSize, (off+n-1)/ssd.UnitSize
	return ssd.AllUnits >> (63 - last) &^ (1<<first - 1)
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

// basePool is one buffer pool — DRAM full frames, DRAM mini frames or NVM
// frames — and everything that differs between them: which descriptor slot
// names its frames, how a page leaves it, its counters and its cleaner. The
// allocate-or-evict loop and the background cleaner are written once against
// it (evict.go, cleaner.go).
//
// Replacement state is one CLOCK over all the pool's frames (lock-free) and
// one LIFO stack of free frames under freeMu (§5.2: one CLOCK per buffer).
type basePool struct {
	bm   *BufferManager
	tier obs.TierID // names the pool in trace events and the cleaner's ring

	// slot returns the descriptor field that names a page's frame in this
	// pool. Slots are written under d.mu and read atomically; a reader that
	// did not take d.mu must pin the frame and validate its pid (pinPage).
	slot func(d *descriptor) *frameSlot

	// unlink is the tier-specific half of an eviction: under the tier latch
	// (TryLock — d is a second descriptor to the allocating thread) it makes
	// the page in frozen frame v safe to drop and clears the descriptor's
	// slot. (false, nil) is contention, a non-nil error an I/O failure whose
	// retries are already spent; either way the descriptor still owns v.
	unlink func(ctx *Ctx, d *descriptor, v int32) (bool, error)

	stats  *bmStats           // the manager's counter blocks
	st     tierStats          // which of the counters are this pool's
	hEvict *metrics.Histogram // eviction latency; nil when untraced (and for mini frames)

	cleaner *cleaner // nil for the mini frames, which are reclaimed inline only

	// failed latches when the pool's device fails permanently: nothing
	// allocates from the pool again (NVM only; see degradeNVM).
	failed atomic.Bool

	nFrames int
	meta    []frameMeta
	clock   *bitmapclock.Clock

	// The free list is written by every allocation and release, from every
	// worker and the cleaner; meta, clock and the pool type's own fields that
	// follow the basePool are read by every hit. 56 bytes of padding on
	// either side keep the two off each other's cache lines at any 8-byte
	// alignment.
	_ [56]byte

	// freeMu guards free, the frozen free frames (LIFO). Its lockcheck rank
	// RankFreeList is a strict leaf: allocation takes it under tier latches,
	// and nothing is acquired while it is held.
	freeMu sync.Mutex
	free   []int32

	// freeLen mirrors len(free) so watermark checks and an empty pool's
	// allocators read one atomic instead of taking freeMu.
	freeLen atomic.Int64

	_ [56]byte
}

// count bumps one of the pool's counters in worker w's block.
func (p *basePool) count(w int, id counter) { p.stats.at(w).c[id].Inc() }

// init sizes a freshly allocated (embedded) basePool in place — the struct
// holds atomics, so it must never be copied.
func (p *basePool) init(nFrames int, stats *bmStats, st tierStats) {
	p.stats, p.st = stats, st
	p.nFrames = nFrames
	p.meta = make([]frameMeta, nFrames)
	p.clock = bitmapclock.New(nFrames)
	p.free = make([]int32, 0, nFrames)
	// Push descending so low frame indices pop first.
	for f := int32(nFrames) - 1; f >= 0; f-- {
		p.free = append(p.free, f)
	}
	for i := range p.meta {
		p.meta[i].pid.Store(InvalidPageID)
		p.meta[i].pins.Store(-1) // free frames are frozen
	}
	p.freeLen.Store(int64(nFrames))
}

// lockFree and unlockFree route freeMu through the lockcheck shims so the
// -tags lockcheck build sees RankFreeList as a leaf.
func (p *basePool) lockFree(h *lockcheck.Holder) {
	lockcheck.Acquire(h, &p.freeMu, lockcheck.RankFreeList)
	p.freeMu.Lock()
}

func (p *basePool) unlockFree(h *lockcheck.Holder) {
	p.freeMu.Unlock()
	if lockcheck.Enabled {
		lockcheck.Release(h, &p.freeMu, lockcheck.RankFreeList)
	}
}

// freeCount is the free-list depth (watermarks and gauges only; it can be
// stale by the time the caller acts on it).
func (p *basePool) freeCount() int { return int(p.freeLen.Load()) }

// takeFree pops a frame from the free list. The frame is frozen.
func (p *basePool) takeFree(h *lockcheck.Holder) (int32, bool) {
	if p.freeLen.Load() == 0 {
		return noFrame, false // empty at a glance; don't lock
	}
	p.lockFree(h)
	n := len(p.free)
	if n == 0 {
		p.unlockFree(h)
		return noFrame, false
	}
	f := p.free[n-1]
	p.free = p.free[:n-1]
	p.freeLen.Store(int64(n - 1))
	p.unlockFree(h)
	return f, true
}

// victim picks a CLOCK victim. Victim selection itself is lock-free.
func (p *basePool) victim() int32 { return int32(p.clock.Victim()) }

// ref and unref set and clear a frame's CLOCK reference bit.
func (p *basePool) ref(f int32)   { p.clock.Ref(int(f)) }
func (p *basePool) unref(f int32) { p.clock.Unref(int(f)) }

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
// copy in this pool, pinned once for the caller (the inverse of evict). diff
// is the copy's initial write-back mask and fg its fine-grained residency
// state, nil for a whole page. Caller holds the pool's tier latch on d. The
// order is what pinPage relies on: tag the frame, publish the slot, thaw last.
func (p *basePool) attach(h *lockcheck.Holder, d *descriptor, f int32, dirty bool, diff uint64, fg *fgState) {
	m := &p.meta[f]
	m.pid.Store(d.pid)
	m.dirty.Store(dirty)
	m.diff.Store(diff)
	m.fg.Store(fg)
	d.lockMu(h)
	p.slot(d).Store(f)
	d.unlockMu(h)
	m.pins.Store(1)
	p.ref(f)
}

// release returns a frozen frame to the free list. The freeze invariant is
// asserted in debug builds: a frame entering the free list with pins != -1
// would be handed to the next allocator thawed.
func (p *basePool) release(h *lockcheck.Holder, f int32) {
	p.meta[f].pid.Store(InvalidPageID)
	p.meta[f].dirty.Store(false)
	p.meta[f].diff.Store(0)
	p.meta[f].fg.Store(nil)
	p.meta[f].lent.Store(nil)
	if lockcheck.Enabled && p.meta[f].pins.Load() != -1 {
		panic(fmt.Sprintf("core: frame %d pushed to free list with pins=%d, want -1 (frozen)",
			f, p.meta[f].pins.Load()))
	}
	p.unref(f)
	p.lockFree(h)
	p.free = append(p.free, f)
	p.freeLen.Store(int64(len(p.free)))
	p.unlockFree(h)
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
	dp.init(nFrames, &bm.stats, dramStats)
	dp.bm, dp.tier = bm, obs.TierDRAM
	dp.slot = func(d *descriptor) *frameSlot { return &d.dramFrame }
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
		mp.init(nMini, &bm.stats, miniStats)
		mp.bm, mp.tier = bm, obs.TierMini
		mp.slot = func(d *descriptor) *frameSlot { return &d.dramMini }
		mp.unlink = bm.unlinkMini
		dp.mini = mp
	}
	return dp, nil
}

// read copies bytes [off, off+len(buf)) of full frame i into buf. A lent
// frame's units come from the arena where its write-back mask names them and
// from the lent page elsewhere (ownUnits says when a bit is set).
func (p *dramPool) read(i int32, off int, buf []byte) {
	m := &p.meta[i]
	readLent(buf, p.arenaFrame(i), m.lent.Load(), m.diff.Load(), off)
}

// readLent copies bytes [off, off+len(buf)) of a frame's page into buf: from
// arena, the frame's whole slice of its pool, where diff names the unit or
// the frame is not lent (l nil), and from the lent page l elsewhere.
func readLent(buf, arena []byte, l *[PageSize]byte, diff uint64, off int) {
	if l == nil {
		copy(buf, arena[off:])
		return
	}
	mask := unitMask(off, len(buf))
	switch diff & mask {
	case 0:
		copy(buf, l[off:])
		return
	case mask:
		copy(buf, arena[off:])
		return
	}
	for n := 0; n < len(buf); {
		u := (off + n) / ssd.UnitSize
		src := l[:]
		if diff&(1<<u) != 0 {
			src = arena
		}
		n += copy(buf[n:], src[off+n:min((u+1)*ssd.UnitSize, off+len(buf))])
	}
}

// ownUnits returns full frame i's arena slice for a write of bytes
// [off, off+n); every write of a pinned full frame goes through it. On a
// lent frame it first takes the units the write touches over, under the
// owning flag so that two writers of one unit copy it once: it copies in
// from the lent page each unit the write covers only in part, then sets the
// units' bits in the write-back mask. From then on the arena holds every
// byte of those units except the ones the caller is about to write, which no
// other pinner may read meanwhile. Readers of other units keep reading the
// lent page, which nothing writes while the frame is pinned.
func (p *dramPool) ownUnits(i int32, off, n int) []byte {
	m := &p.meta[i]
	mask := unitMask(off, n)
	if m.lent.Load() == nil || m.diff.Load()&mask == mask {
		return p.arenaFrame(i)
	}
	m.lockOwning()
	arena, l := p.arenaFrame(i), m.lent.Load()
	if need := mask &^ m.diff.Load(); need != 0 {
		// Only the first and last units can be partly covered.
		first, last := off/ssd.UnitSize, (off+n-1)/ssd.UnitSize
		partial := uint64(0)
		if off%ssd.UnitSize != 0 {
			partial |= 1 << first
		}
		if (off+n)%ssd.UnitSize != 0 {
			partial |= 1 << last
		}
		ssd.CopyUnits(arena, l[:], need&partial)
		m.diff.Or(need)
	}
	m.owning.Store(false)
	return arena
}

// lockOwning spins until the caller holds the frame's owning flag, which
// serialises the takeovers of a lent frame's units. Its holder takes no
// latch or lock; it releases the flag with owning.Store(false).
func (f *frameMeta) lockOwning() {
	for j := 0; !f.owning.CompareAndSwap(false, true); j++ {
		backoff(j)
	}
}

// arenaFrame is full frame i's slice of the arena, lent or not.
func (p *dramPool) arenaFrame(i int32) []byte {
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
	np.init(nFrames, &bm.stats, nvmStats)
	np.bm, np.tier = bm, obs.TierNVM
	np.slot = func(d *descriptor) *frameSlot { return &d.nvmFrame }
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

// wordOffset is the arena offset of frame i's mask word, bytes [16:24) of
// its header slot, outside the header's checksum.
func (p *nvmPool) wordOffset(i int32) int64 { return p.headerOffset(i) + 16 }

// hostStored runs after each takeover copy or mask word lands in the arena
// (pmem.PMem.HostStore): a no-op that a test replaces to crash the machine
// between two of them.
var hostStored = func() {}

// storeWord durably records in frame i's mask word which units of the page
// the arena holds: ssd.AllUnits for a frame that owns its page, its exact
// write-back mask for a frame the SSD store lent its page. The word moves no
// page bytes and says only where the host keeps bytes the simulated NVM
// already holds, so it is an uncharged host store (pmem.HostStore), durable
// at once. It is set before the bytes it names are needed: an install
// stores it after the payload and before the header, so a valid header
// always sits over a current word, and a takeover (own) after copying the
// units in and before the charged write of them.
func (p *nvmPool) storeWord(i int32, units uint64) error {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], units)
	if err := p.pm.HostStore(p.wordOffset(i), w[:]); err != nil {
		return fmt.Errorf("core: nvm frame %d mask word: %w", i, err)
	}
	hostStored()
	return nil
}

// readWord decodes frame i's mask word without charging a device.
func (p *nvmPool) readWord(i int32) uint64 {
	return binary.LittleEndian.Uint64(p.pm.Bytes(p.wordOffset(i), 8))
}

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
// The caller owns frame i exclusively; the header is composed in the frame's
// metadata.
func (p *nvmPool) writeHeader(c *vclock.Clock, i int32, pid PageID, valid bool) error {
	hdr := p.meta[i].hdr[:]
	magic := uint32(0)
	if valid {
		magic = nvmFrameMagic
	}
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint64(hdr[8:16], pid)
	binary.LittleEndian.PutUint32(hdr[4:8], headerSum(hdr))
	if err := p.pm.WriteErr(c, p.headerOffset(i), hdr); err != nil {
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
// is installed after it, so a half-written payload is never served). On a
// lent frame it first takes the units the write touches over (own).
func (p *nvmPool) writePayload(c *vclock.Clock, i int32, off int, data []byte) error {
	if err := p.own(i, unitMask(off, len(data))); err != nil {
		return err
	}
	base := p.payloadOffset(i) + int64(off)
	if err := p.pm.WriteErr(c, base, data); err != nil {
		return fmt.Errorf("core: nvm frame %d write: %w", i, err)
	}
	if err := p.pm.PersistErr(c, base, len(data)); err != nil {
		return fmt.Errorf("core: nvm frame %d persist: %w", i, err)
	}
	return nil
}

// own takes the units in mask of lent frame i over into the arena before a
// write of them; it does nothing on a frame that owns its page or already
// holds the units. Under the owning flag it copies in from the lent page
// every unit of mask the frame's write-back mask lacks — whole units too: a
// crash between here and the write must find the units' old bytes in the
// arena — then records them in the frame's mask word and only then in its
// write-back mask, from which readers learn to read them from the arena.
// The copies and the word are durable host stores (pmem.HostStore), so the
// simulated clock does not move. An error means the machine crashed.
func (p *nvmPool) own(i int32, mask uint64) error {
	m := &p.meta[i]
	l := m.lent.Load()
	if l == nil || m.diff.Load()&mask == mask {
		return nil
	}
	m.lockOwning()
	defer m.owning.Store(false)
	diff := m.diff.Load()
	need := mask &^ diff
	base := p.payloadOffset(i)
	for units := need; units != 0; {
		lo := bits.TrailingZeros64(units)
		hi := lo + bits.TrailingZeros64(^(units >> lo))
		units &= ssd.AllUnits << hi // a shift by 64 clears them all
		if err := p.pm.HostStore(base+int64(lo*ssd.UnitSize), l[lo*ssd.UnitSize:hi*ssd.UnitSize]); err != nil {
			return fmt.Errorf("core: nvm frame %d takeover: %w", i, err)
		}
		hostStored()
	}
	if err := p.storeWord(i, diff|need); err != nil {
		return err
	}
	m.diff.Or(need)
	return nil
}

// writePage stores (and persists) a whole page in frame i: the units of data
// named in units, charged as a write of all of data (pmem.WriteUnits). A
// frame that owns its page stores every unit; a frame lent the store's page
// stores only the units its write-back mask names.
func (p *nvmPool) writePage(c *vclock.Clock, i int32, data []byte, units uint64) error {
	base := p.payloadOffset(i)
	if err := p.pm.WriteUnits(c, base, data, units); err != nil {
		return fmt.Errorf("core: nvm frame %d write: %w", i, err)
	}
	if err := p.pm.PersistErr(c, base, PageSize); err != nil {
		return fmt.Errorf("core: nvm frame %d persist: %w", i, err)
	}
	return nil
}

// readPayload loads page data from frame i at the given in-page offset: a
// charged read of the range, then the bytes from the arena or, on a lent
// frame, from the lent page where the frame's mask does not name the unit.
func (p *nvmPool) readPayload(c *vclock.Clock, i int32, off int, buf []byte) error {
	if _, err := p.pm.ReadView(c, p.payloadOffset(i)+int64(off), len(buf)); err != nil {
		return fmt.Errorf("core: nvm frame %d read: %w", i, err)
	}
	p.copyOut(i, off, buf)
	return nil
}

// copyOut copies bytes [off, off+len(buf)) of frame i's page into buf
// without charging a device (readLent over the frame's payload).
func (p *nvmPool) copyOut(i int32, off int, buf []byte) {
	m := &p.meta[i]
	readLent(buf, p.pm.Bytes(p.payloadOffset(i), PageSize), m.lent.Load(), m.diff.Load(), off)
}

// viewPayload charges the read of frame i's whole payload that readPayload
// would and returns the payload in place (pmem.ReadView) instead of a copy.
// On a lent frame only the units its mask names are the page's; the rest is
// in the lent page. The caller keeps the frame from being written while it
// uses the view.
func (p *nvmPool) viewPayload(c *vclock.Clock, i int32) ([]byte, error) {
	v, err := p.pm.ReadView(c, p.payloadOffset(i), PageSize)
	if err != nil {
		return nil, fmt.Errorf("core: nvm frame %d read: %w", i, err)
	}
	return v, nil
}
