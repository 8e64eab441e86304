package core

import (
	"errors"
	"time"

	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/obs"
	"github.com/spitfire-db/spitfire/internal/policy"
)

// errPoolExhausted is returned when no frame can be reclaimed: every frame
// is pinned or under concurrent migration for the whole attempt budget.
var errPoolExhausted = errors.New("core: buffer pool exhausted (all frames pinned)")

// allocDeadline bounds the victim search in wall-clock time. Pins are
// short-lived (the engine releases a handle before fetching the next page),
// so allocation waits patiently — yielding via backoff — rather than
// failing the moment more workers hold pins than the pool has frames. A
// generous real-time deadline (rather than an iteration count) keeps the
// search robust on heavily loaded hosts; it only expires if callers wedge
// frames essentially forever.
var allocDeadline = 10 * time.Second

// allocExpired checks the deadline every few thousand iterations (time.Now
// is too expensive to call per attempt).
func allocExpired(i int, start *time.Time) bool {
	if i&8191 != 8191 {
		return false
	}
	if start.IsZero() {
		*start = time.Now() //vet:allow determinism allocDeadline is a host-side liveness bound, never feeds simulated time
		return false
	}
	return time.Since(*start) > allocDeadline //vet:allow determinism allocDeadline is a host-side liveness bound, never feeds simulated time
}

// alloc returns a frozen, clean frame, evicting a victim if the free list is
// empty. With the background cleaner enabled the common case is a free-list
// pop; the inline eviction loop below is the fallback when the cleaner cannot
// keep up. An I/O error from a victim's write-back surfaces immediately
// (retries already ran inside the eviction) rather than spinning the victim
// search against a failing device.
func (p *basePool) alloc(ctx *Ctx) (int32, error) {
	w, home, cl := ctx.Clock.Worker(), p.home(ctx), p.cleaner
	if f, ok := p.takeFree(w); ok {
		if cl != nil && p.freeCount() < cl.low {
			cl.wake(home)
		}
		return f, nil
	}
	if cl != nil {
		cl.wake(home)
	}
	var searchStart time.Time
	for i := 0; !allocExpired(i, &searchStart); i++ {
		if f, ok := p.takeFree(w); ok {
			return f, nil
		}
		// Sweep the home shard's hand first; rotate to the other shards'
		// hands as attempts accumulate so a fully pinned shard cannot wedge
		// the search.
		v, evicted, err := p.reclaim(ctx, home+i)
		if err != nil {
			return noFrame, err
		}
		if v == noFrame {
			backoff(i)
			continue
		}
		if evicted && p.assist > 0 {
			p.bm.count(ctx.Clock, cFgEvicts)
			p.assistBatch(ctx, home)
		}
		return v, nil
	}
	return noFrame, errPoolExhausted
}

// reclaim is the one eviction step, shared by alloc, assistBatch and the
// background cleaner: take a CLOCK victim from shard si's hand (wrapped
// across shards), freeze it, and evict its page, charging ctx's clock. It
// returns the frame frozen, clean and unlinked from any descriptor — the
// caller keeps it or releases it to the free list — or noFrame when the
// victim was pinned or contended (the frame is thawed again). evicted
// reports whether a page had to leave.
func (p *basePool) reclaim(ctx *Ctx, si int) (v int32, evicted bool, err error) {
	v = p.victim(si)
	m := &p.meta[v]
	if !m.tryFreeze() {
		return noFrame, false, nil
	}
	if m.pid.Load() == InvalidPageID {
		// Defensive: a frozen frame with no page should only live on the
		// free list; hand it out rather than losing it.
		return v, false, nil
	}
	if ok, err := p.evict(ctx, v); !ok {
		return noFrame, false, err
	}
	return v, true, nil
}

// fgBatchSteal is how many extra frames an inline DRAM or NVM eviction
// pushes onto the free list beyond the one it keeps. Small: the point is
// amortizing the cache-cold victim scan the foreground thread already paid
// for, not re-implementing the cleaner inline.
const fgBatchSteal = 3

// assistBatch runs after an inline eviction succeeded — the free list was
// empty and the cleaner behind, so the allocators right behind this thread
// would each pay their own victim scan too. Having eaten the scan's cache
// misses already, reclaim a few more victims into the free list. Strictly
// best-effort: contended or pinned victims are skipped, an I/O error stops
// the assist (the caller's own frame is already secured; a failing device
// should not be hammered from the allocation path), and the loop quits as
// soon as the free list has stock.
func (p *basePool) assistBatch(ctx *Ctx, home int) {
	steal := p.assist
	if lim := p.nFrames / 4; steal > lim {
		steal = lim // tiny pools: don't sweep the whole CLOCK at once
	}
	stolen := 0
	for attempts := steal * 2; stolen < steal && attempts > 0 && p.freeCount() < steal; attempts-- {
		v, _, err := p.reclaim(ctx, home+attempts)
		if err != nil {
			return
		}
		if v == noFrame {
			continue
		}
		p.release(v)
		stolen++
		p.bm.count(ctx.Clock, cFgBatchCleaned)
	}
}

// evict empties occupied, frozen frame v, leaving it frozen and clean for
// reuse. On failure the frame is thawed; a non-nil error reports an
// unretryable I/O failure (contention is (false, nil) and is retried by the
// caller's victim loop).
func (p *basePool) evict(ctx *Ctx, v int32) (bool, error) {
	m := &p.meta[v]
	pid := m.pid.Load()
	var evStart int64
	if p.hEvict != nil {
		evStart = ctx.Clock.Now()
	}
	d, ok := p.bm.table.Get(pid)
	if ok {
		ok = p.slot(d).Load() == v
	}
	var err error
	if ok {
		ok, err = p.unlink(ctx, d, v)
	}
	if !ok {
		m.thaw()
		return false, err
	}
	m.pid.Store(InvalidPageID)
	m.dirty.Store(false)
	m.fg.Store(nil)
	m.clAdmit.Store(false)
	p.unref(v)
	p.count(ctx.Clock.Worker(), p.st.evicts)
	if p.hEvict != nil {
		now := ctx.Clock.Now()
		p.hEvict.Observe(now - evStart)
		p.bm.emit(ctx, obs.Event{
			TS: now, Dur: now - evStart,
			Type: obs.EvEvict, From: p.tier, Page: pid,
		})
	}
	return true, nil
}

// unlinkDRAM is the DRAM pool's unlink: write frame v's page down-tier and
// detach it from d.
func (bm *BufferManager) unlinkDRAM(ctx *Ctx, d *descriptor, v int32) (bool, error) {
	if !d.tryLockD() {
		return false, nil
	}
	defer d.unlockD()
	if ok, err := bm.writeBackDRAM(ctx, d, v); !ok {
		return false, err
	}
	d.lockMu()
	d.dramFrame.Store(noFrame)
	d.unlockMu()
	return true, nil
}

// writeBackDRAM makes frame v's contents durable-enough to drop: dirty data
// is pushed to the NVM copy if one exists, otherwise admitted to NVM per Nw
// (or HyMem's admission queue), otherwise written straight to SSD (§3.4).
// Caller holds d.latchD and the frozen frame.
//
// Fault handling: all NVM and SSD writes run under the retry policy. If an
// NVM *admission* fails, the page falls back to SSD — admission is an
// optimization, not a correctness requirement. If refreshing an *existing*
// NVM copy fails, the eviction is abandoned with the error: dropping the
// DRAM copy while a stale NVM copy stays reachable (and durable) would let
// recovery resurrect old data over a newer SSD image.
func (bm *BufferManager) writeBackDRAM(ctx *Ctx, d *descriptor, v int32) (bool, error) {
	p := bm.dram
	m := &p.meta[v]
	fg := m.fg.Load()
	dirty := m.dirty.Load()
	loc := d.load()
	nvmOK := bm.nvm != nil && !bm.nvmDown()

	// Cache-line-grained page backed by an NVM copy: write only the dirty
	// units back (the bandwidth saving of HyMem's layout, Figure 2a).
	if fg != nil && loc.nvmFrame != noFrame {
		if !dirty {
			return true, nil
		}
		if !d.tryLockN() {
			return false, nil
		}
		defer d.unlockN()
		nm := &bm.nvm.meta[loc.nvmFrame]
		if !nm.freezeWait(d.pid) {
			return false, nil
		}
		defer nm.thaw()
		fg.lock()
		frame := p.frame(v)
		var werr error
		for u := 0; u < fg.unitsPerPage(); u++ {
			if fg.isDirty(u) {
				off := u * fg.unit
				p.charge.ChargeRead(ctx.Clock, p.frameOffset(v)+int64(off), fg.unit)
				if werr = bm.nvmWritePayload(ctx.Clock, loc.nvmFrame, off, frame[off:off+fg.unit]); werr != nil {
					break
				}
			}
		}
		if werr == nil {
			fg.clearDirty()
		}
		fg.unlock()
		if werr != nil {
			return false, werr
		}
		nm.dirty.Store(true)
		bm.count(ctx.Clock, cDRAMToNVM)
		bm.emit(ctx, obs.Event{Type: obs.EvWriteBack, From: obs.TierDRAM, To: obs.TierNVM, Page: d.pid})
		return true, nil
	}
	// A fine-grained page without an NVM copy is fully resident by
	// invariant (the NVM evictor refuses to orphan partial pages), so the
	// whole-page paths below are safe for it.

	if !dirty {
		// Spitfire simply discards clean pages (§3.3: only modified pages
		// are considered for NVM admission). HyMem's admission queue,
		// however, sees *every* page evicted from DRAM — its NVM buffer is
		// a second-level cache — so in queue mode a clean page that earns
		// admission is installed on NVM (clean: SSD already has it).
		pol := bm.pol.Load()
		if pol.NwMode != policy.NwAdmissionQueue || bm.admQueue == nil ||
			!nvmOK || loc.nvmFrame != noFrame || !bm.admQueue.Admit(d.pid) {
			return true, nil
		}
		if !d.tryLockN() {
			return true, nil // clean: safe to just drop instead
		}
		if nf, err := bm.nvm.alloc(ctx); err == nil {
			bm.admitNVM(ctx, d, v, nf, false) // on failure just drop: the page is clean
		}
		d.unlockN()
		return true, nil
	}

	frame := p.frame(v)
	if loc.nvmFrame != noFrame {
		// Refresh the page's existing NVM copy so NVM never goes stale
		// ahead of SSD write-back.
		if !d.tryLockN() {
			return false, nil
		}
		defer d.unlockN()
		nm := &bm.nvm.meta[loc.nvmFrame]
		if !nm.freezeWait(d.pid) {
			return false, nil
		}
		defer nm.thaw()
		p.charge.ChargeRead(ctx.Clock, p.frameOffset(v), PageSize)
		if err := bm.nvmWritePayload(ctx.Clock, loc.nvmFrame, 0, frame); err != nil {
			return false, err
		}
		nm.dirty.Store(true)
		bm.count(ctx.Clock, cDRAMToNVM)
		bm.emit(ctx, obs.Event{Type: obs.EvWriteBack, From: obs.TierDRAM, To: obs.TierNVM, Page: d.pid})
		return true, nil
	}

	// NVM admission decision (§3.4). HyMem consults its admission queue;
	// Spitfire flips a Bernoulli(Nw) coin. The background cleaner does
	// neither blindly: it feeds the admission queue even in coin mode, so
	// its off-critical-path write-backs pre-warm NVM with pages that have
	// shown repeated eviction pressure, while a single cold sweep cannot
	// flood the buffer the way always-admit did. (With Nw forced to zero —
	// NVM disabled or degraded — the cleaner bias is off too.)
	admit := false
	if nvmOK {
		pol := bm.pol.Load()
		if pol.NwMode == policy.NwAdmissionQueue && bm.admQueue != nil {
			admit = bm.admQueue.Admit(d.pid)
		} else if ctx.cleaner {
			admit = pol.Nw > 0 && bm.admQueue != nil && bm.admQueue.Admit(d.pid)
		} else {
			admit = ctx.bernoulli(pol.Nw)
		}
	}
	if admit {
		if !d.tryLockN() {
			return false, nil
		}
		nf, err := bm.nvm.alloc(ctx)
		if err == nil {
			admitted := bm.admitNVM(ctx, d, v, nf, true)
			d.unlockN()
			if admitted {
				return true, nil
			}
			// Admission failed mid-install; the page has no NVM copy yet, so
			// fall back to writing it straight to SSD below.
		} else {
			// NVM itself is unevictable right now; fall through to SSD.
			d.unlockN()
			if errors.Is(err, device.ErrCrashed) {
				return false, err
			}
			if isIOErr(err) {
				// note and keep going: SSD can still take the page
				bm.noteNVMErr(err)
			}
		}
	}

	if !d.tryLockS() {
		return false, nil
	}
	defer d.unlockS()
	p.charge.ChargeRead(ctx.Clock, p.frameOffset(v), PageSize)
	if err := bm.diskWritePage(ctx.Clock, d.pid, frame); err != nil {
		return false, err
	}
	bm.count(ctx.Clock, cDRAMToSSD)
	bm.emit(ctx, obs.Event{Type: obs.EvWriteBack, From: obs.TierDRAM, To: obs.TierSSD, Page: d.pid})
	return true, nil
}

// admitNVM installs DRAM frame v's contents into frozen NVM frame nf as page
// d's NVM copy and publishes it (path ❹). Caller holds d.latchN and both
// frames. It reports false if the install failed (the error is already
// retried, counted and noted against the tier): nf is back on the free list
// and d is untouched, since admission is an optimization the caller can skip.
func (bm *BufferManager) admitNVM(ctx *Ctx, d *descriptor, v, nf int32, dirty bool) bool {
	p := bm.dram
	p.charge.ChargeRead(ctx.Clock, p.frameOffset(v), PageSize)
	if err := bm.installNVMPage(ctx.Clock, nf, d.pid, p.frame(v)); err != nil {
		bm.nvm.release(nf)
		return false
	}
	nm := &bm.nvm.meta[nf]
	nm.pid.Store(d.pid)
	nm.dirty.Store(dirty)
	nm.clAdmit.Store(ctx.cleaner)
	if ctx.cleaner {
		bm.count(ctx.Clock, cCleanerAdmittedNVM)
	}
	d.lockMu()
	d.nvmFrame.Store(nf)
	d.unlockMu()
	nm.thaw()
	bm.nvm.ref(nf)
	bm.count(ctx.Clock, cDRAMToNVM)
	bm.emit(ctx, obs.Event{Type: obs.EvAdmit, From: obs.TierDRAM, To: obs.TierNVM, Page: d.pid})
	return true
}

// unlinkMini is the mini pool's unlink: write the mini page's dirty slots
// back to the page's NVM copy and detach it from d.
func (bm *BufferManager) unlinkMini(ctx *Ctx, d *descriptor, v int32) (bool, error) {
	if !d.tryLockD() {
		return false, nil
	}
	defer d.unlockD()
	m := &bm.dram.mini.meta[v]
	if fg := m.fg.Load(); m.dirty.Load() && fg != nil && fg.slotDirtyAny() {
		if ok, err := bm.writeBackMini(ctx, d, v, fg); !ok {
			return false, err
		}
	}
	d.lockMu()
	d.dramMini.Store(noFrame)
	d.unlockMu()
	return true, nil
}

// writeBackMini writes mini frame v's dirty slots into page d's NVM copy.
// Caller holds d.latchD and the frozen mini frame.
func (bm *BufferManager) writeBackMini(ctx *Ctx, d *descriptor, v int32, fg *fgState) (bool, error) {
	mp := bm.dram.mini
	loc := d.load()
	if loc.nvmFrame == noFrame {
		// Invariant violation guard: never drop dirty mini slots with no
		// backing copy.
		return false, nil
	}
	if !d.tryLockN() {
		return false, nil
	}
	defer d.unlockN()
	nm := &bm.nvm.meta[loc.nvmFrame]
	if !nm.freezeWait(d.pid) {
		return false, nil
	}
	defer nm.thaw()
	fg.lock()
	data := mp.data(v)
	var werr error
	for s := 0; s < fg.slotCount; s++ {
		if fg.slotDirty&(1<<uint(s)) == 0 {
			continue
		}
		u := int(fg.slots[s])
		bm.dram.charge.ChargeRead(ctx.Clock, int64(int(v)*mp.slotSize+s*fg.unit), fg.unit)
		if werr = bm.nvmWritePayload(ctx.Clock, loc.nvmFrame, u*fg.unit, data[s*fg.unit:(s+1)*fg.unit]); werr != nil {
			break
		}
	}
	if werr == nil {
		fg.clearDirty()
	}
	fg.unlock()
	if werr != nil {
		return false, werr
	}
	nm.dirty.Store(true)
	bm.count(ctx.Clock, cDRAMToNVM)
	return true, nil
}

// slotDirtyAny reports whether any mini slot is dirty (lock-free peek; the
// caller revalidates under fg.mu).
func (fg *fgState) slotDirtyAny() bool { return fg.slotDirty != 0 }

// unlinkNVM is the NVM pool's unlink: write the page in NVM frame v back to
// SSD if dirty (path ❽), invalidate the frame's durable header and detach it
// from d. Pages whose DRAM copy is only partially resident (cache-line-
// grained or mini) are skipped: evicting their backing store would orphan
// them.
func (bm *BufferManager) unlinkNVM(ctx *Ctx, d *descriptor, v int32) (bool, error) {
	if !d.tryLockN() {
		return false, nil
	}
	defer d.unlockN()
	// Re-check DRAM dependencies under latchN (migrations up require it,
	// so no new fine-grained page can appear once we hold it).
	loc := d.load()
	if loc.dramMini != noFrame {
		return false, nil
	}
	if df := loc.dramFrame; df != noFrame && bm.dram != nil {
		if fg := bm.dram.meta[df].fg.Load(); fg != nil && !fg.fullyResident() {
			return false, nil
		}
	}
	if bm.nvm.meta[v].dirty.Load() {
		if !d.tryLockS() {
			return false, nil
		}
		buf := ctx.buf()
		err := bm.nvmReadPayload(ctx.Clock, v, 0, buf)
		if err == nil {
			err = bm.diskWritePage(ctx.Clock, d.pid, buf)
		}
		d.unlockS()
		if err != nil {
			return false, err
		}
		bm.count(ctx.Clock, cNVMToSSD)
		bm.emit(ctx, obs.Event{Type: obs.EvWriteBack, From: obs.TierNVM, To: obs.TierSSD, Page: d.pid})
	}
	// Invalidate the frame's durable header so recovery cannot resurrect it.
	// An invalidation failure keeps the frame attached (thawed, consistent):
	// abandoning it here while its valid header survives in the arena would
	// let a crash-recovery scan revive a page the manager thinks it evicted.
	if err := bm.nvmWriteHeader(ctx.Clock, v, InvalidPageID, false); err != nil {
		return false, err
	}
	d.lockMu()
	d.nvmFrame.Store(noFrame)
	d.unlockMu()
	return true, nil
}
