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
// empty. With the pool's cleaner running the common case is a free-list pop;
// the inline eviction loop below is the fallback when the cleaner cannot
// keep up. An I/O error from a victim's write-back surfaces immediately
// (retries already ran inside the eviction) rather than spinning the victim
// search against a failing device.
func (p *basePool) alloc(ctx *Ctx) (int32, error) {
	cl := p.cleaner
	if f, ok := p.takeFree(ctx.holder()); ok {
		if cl != nil && p.freeCount() < cl.low {
			cl.wake()
		}
		return f, nil
	}
	if cl != nil {
		cl.wake()
	}
	var searchStart time.Time
	for i := 0; !allocExpired(i, &searchStart); i++ {
		if f, ok := p.takeFree(ctx.holder()); ok {
			return f, nil
		}
		v, evicted, err := p.reclaim(ctx)
		if err != nil {
			return noFrame, err
		}
		if v == noFrame {
			backoff(i)
			continue
		}
		if evicted && p.tier != obs.TierMini {
			// ForegroundEvicts counts the DRAM and NVM pools' inline
			// evictions, the ones a cleaner could have taken.
			p.bm.count(ctx.Clock, cFgEvicts)
		}
		return v, nil
	}
	return noFrame, errPoolExhausted
}

// reclaim is the one eviction step, shared by alloc and the background
// cleaner: take a CLOCK victim, freeze it, and evict its page, charging ctx's
// clock. It returns the frame frozen, clean and unlinked from any descriptor
// — the caller keeps it or releases it to the free list — or noFrame when the
// victim was pinned or contended (the frame is thawed again). evicted
// reports whether a page had to leave.
func (p *basePool) reclaim(ctx *Ctx) (v int32, evicted bool, err error) {
	v = p.victim()
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
	d := p.bm.table.Get(pid)
	ok := p.slot(d).Load() == v
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
	m.diff.Store(0)
	m.fg.Store(nil)
	m.lent.Store(nil)
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
	if !d.tryLockD(ctx.holder()) {
		return false, nil
	}
	defer d.unlockD(ctx.holder())
	if ok, err := bm.writeBackDRAM(ctx, d, v); !ok {
		return false, err
	}
	d.lockMu(ctx.holder())
	d.dramFrame.Store(noFrame)
	d.unlockMu(ctx.holder())
	return true, nil
}

// writeBackDRAM makes frame v's contents durable-enough to drop. A page with
// no NVM copy is first offered to NVM (admits); one that enters is installed
// there, dirty or clean as it was in DRAM. Otherwise a clean page is simply
// dropped, and a dirty one is written down: to its NVM copy if it has one,
// else straight to SSD (§3.4). Caller holds d.latchD and the frozen frame.
//
// Fault handling: all NVM and SSD writes run under the retry policy. If an
// NVM *admission* fails, the page falls back to SSD — admission is an
// optimization, not a correctness requirement. If refreshing an *existing*
// NVM copy fails, the eviction is abandoned with the error: dropping the
// DRAM copy while a stale NVM copy stays reachable (and durable) would let
// recovery resurrect old data over a newer SSD image.
func (bm *BufferManager) writeBackDRAM(ctx *Ctx, d *descriptor, v int32) (bool, error) {
	loc := d.load(ctx.holder())
	dirty := bm.dram.meta[v].dirty.Load()
	if bm.nvm != nil && !bm.nvmDown() && loc.nvmFrame == noFrame && bm.admits(ctx, d.pid, dirty) {
		if !d.tryLockN(ctx.holder()) {
			return !dirty, nil // a clean page is safe to just drop instead
		}
		nf, err := bm.nvm.alloc(ctx)
		admitted := err == nil && bm.admitNVM(ctx, d, v, nf, dirty)
		d.unlockN(ctx.holder())
		if admitted || !dirty {
			return true, nil // a clean page that found no NVM frame is dropped: SSD has it
		}
		// The install failed, or NVM is unevictable right now: the page has
		// no NVM copy yet, so write it straight to SSD below.
		if errors.Is(err, device.ErrCrashed) {
			return false, err
		}
		if isIOErr(err) {
			// note and keep going: SSD can still take the page
			bm.noteNVMErr(ctx.holder(), err)
		}
	}
	if !dirty {
		return true, nil
	}

	to, ok, err := bm.writeDown(ctx, d, v, false)
	if !ok {
		return false, err
	}
	if to == obs.TierNVM {
		bm.count(ctx.Clock, cDRAMToNVM)
	} else {
		bm.count(ctx.Clock, cDRAMToSSD)
	}
	bm.emit(ctx, obs.Event{Type: obs.EvWriteBack, From: obs.TierDRAM, To: to, Page: d.pid})
	return true, nil
}

// admits is the NVM admission rule for a page evicted from DRAM with no NVM
// copy, whichever evictor — a foreground worker or a background cleaner —
// took it, drawing on that evictor's own Ctx. HyMem's admission queue sees
// every such page, clean or dirty: its NVM buffer is a second-level cache,
// and a clean page it admits is installed clean (SSD already has it).
// Otherwise only a modified page is considered (§3.3) and it enters by one
// Bernoulli(Nw) trial (§3.4).
func (bm *BufferManager) admits(ctx *Ctx, pid PageID, dirty bool) bool {
	pol := bm.pol.Load()
	if pol.NwMode == policy.NwAdmissionQueue {
		return bm.admQueue.Admit(pid)
	}
	return dirty && ctx.bernoulli(pol.Nw)
}

// writeDown writes the dirty contents of page d's DRAM copy — full frame v,
// or mini frame v when mini — down to durable media, for eviction and
// checkpoint alike, and reports the tier it wrote to. With an NVM copy it
// writes only the dirty units (a mini frame's dirty slots) of a
// cache-line-grained copy, the whole page otherwise; with none it writes the
// whole page to SSD. Every byte written is charged as a DRAM read. A copy
// with no dirty unit writes nothing and leaves the NVM copy's dirty bit
// alone. On success the DRAM copy is clean.
//
// Caller holds d.latchD and the frozen frame. (false, nil) reports
// contention on latchN, latchS or the NVM frame, and refuses a mini page
// with no NVM copy: its dirty slots have no page to land in. A non-nil
// error is an unretryable I/O failure.
func (bm *BufferManager) writeDown(ctx *Ctx, d *descriptor, v int32, mini bool) (obs.TierID, bool, error) {
	p := bm.dram
	// A lent frame's arena holds only the units its mask names. Only its
	// SSD write-back reads it, and the store reads just those units; a frame
	// with an NVM copy is never lent.
	m, src, base := &p.meta[v], p.arenaFrame(v), p.frameOffset(v)
	if mini {
		m, src, base = &p.mini.meta[v], p.mini.data(v), int64(v)*int64(p.mini.slotSize)
	}
	fg := m.fg.Load()
	nf := d.load(ctx.holder()).nvmFrame
	if nf == noFrame {
		// A full frame without an NVM copy is fully resident by invariant
		// (the NVM evictor refuses to orphan partial pages).
		if mini || !d.tryLockS(ctx.holder()) {
			return obs.TierNone, false, nil
		}
		defer d.unlockS(ctx.holder())
		p.charge.ChargeRead(ctx.Clock, base, PageSize)
		if err := bm.diskWritePage(ctx.Clock, d.pid, src, m.diff.Load()); err != nil {
			return obs.TierNone, false, err
		}
		if fg != nil {
			fg.lock(ctx.holder())
			fg.clearDirty()
			fg.unlock(ctx.holder())
		} else {
			m.diff.Store(0) // SSD now holds the whole copy; a fine-grained one keeps every bit
		}
		m.dirty.Store(false)
		return obs.TierSSD, true, nil
	}

	if !d.tryLockN(ctx.holder()) {
		return obs.TierNone, false, nil
	}
	defer d.unlockN(ctx.holder())
	nm := &bm.nvm.meta[nf]
	if !nm.freezeWait(d.pid) {
		return obs.TierNone, false, nil
	}
	defer nm.thaw()
	// A whole copy hands the NVM copy its mask; a cache-line-grained one
	// marks the units it writes.
	wrote, units := fg == nil, m.diff.Load()
	if fg == nil {
		p.charge.ChargeRead(ctx.Clock, base, PageSize)
		if err := bm.nvmWritePayload(ctx.Clock, nf, 0, src); err != nil {
			return obs.TierNone, false, err
		}
	} else {
		units = 0
		var werr error
		fg.lock(ctx.holder())
		for i := 0; i < fg.entries() && werr == nil; i++ {
			u, dirty := fg.dirtyEntry(i)
			if !dirty {
				continue
			}
			off := i * fg.unit
			p.charge.ChargeRead(ctx.Clock, base+int64(off), fg.unit)
			werr = bm.nvmWrite(ctx.Clock, nf, u*fg.unit, src[off:off+fg.unit])
			wrote, units = true, units|unitMask(u*fg.unit, fg.unit)
		}
		if werr == nil {
			fg.clearDirty()
		}
		fg.unlock(ctx.holder())
		if werr != nil {
			bm.noteNVMErr(ctx.holder(), werr)
			return obs.TierNone, false, werr
		}
	}
	if wrote {
		nm.dirty.Store(true)
		nm.diff.Or(units)
	}
	m.dirty.Store(false)
	return obs.TierNVM, true, nil
}

// admitNVM installs DRAM frame v's contents into frozen NVM frame nf as page
// d's NVM copy and publishes it (path ❹). The NVM frame of a lent DRAM frame
// borrows the same lent page and stores only the units the DRAM frame's mask
// names, the ones its arena holds; the admission is charged as a whole
// page's either way. Caller holds d.latchN and both frames. It reports false
// if the install failed (the error is already retried, counted and noted
// against the tier): nf is back on the free list and d is untouched, since
// admission is an optimization the caller can skip.
func (bm *BufferManager) admitNVM(ctx *Ctx, d *descriptor, v, nf int32, dirty bool) bool {
	p := bm.dram
	m := &p.meta[v]
	p.charge.ChargeRead(ctx.Clock, p.frameOffset(v), PageSize)
	if err := bm.installNVMPage(ctx.Clock, nf, d.pid, p.arenaFrame(v), m.lent.Load(), m.diff.Load()); err != nil {
		bm.nvm.release(ctx.holder(), nf)
		return false
	}
	nm := &bm.nvm.meta[nf]
	nm.pid.Store(d.pid)
	nm.dirty.Store(dirty)
	nm.diff.Store(m.diff.Load())
	d.lockMu(ctx.holder())
	d.nvmFrame.Store(nf)
	d.unlockMu(ctx.holder())
	nm.thaw()
	bm.nvm.ref(nf)
	bm.count(ctx.Clock, cDRAMToNVM)
	bm.emit(ctx, obs.Event{Type: obs.EvAdmit, From: obs.TierDRAM, To: obs.TierNVM, Page: d.pid})
	return true
}

// unlinkMini is the mini pool's unlink: write the mini page's dirty slots
// down to its NVM copy and detach it from d.
func (bm *BufferManager) unlinkMini(ctx *Ctx, d *descriptor, v int32) (bool, error) {
	if !d.tryLockD(ctx.holder()) {
		return false, nil
	}
	defer d.unlockD(ctx.holder())
	if bm.dram.mini.meta[v].dirty.Load() {
		if _, ok, err := bm.writeDown(ctx, d, v, true); !ok {
			return false, err
		}
		bm.count(ctx.Clock, cDRAMToNVM)
	}
	d.lockMu(ctx.holder())
	d.dramMini.Store(noFrame)
	d.unlockMu(ctx.holder())
	return true, nil
}

// unlinkNVM is the NVM pool's unlink: write the page in NVM frame v back to
// SSD if dirty (path ❽, one host copy: the store reads the arena in place),
// invalidate the frame's durable header and detach it from d. Pages whose
// DRAM copy is only partially resident (cache-line-grained or mini) are
// skipped: evicting their backing store would orphan them.
func (bm *BufferManager) unlinkNVM(ctx *Ctx, d *descriptor, v int32) (bool, error) {
	if !d.tryLockN(ctx.holder()) {
		return false, nil
	}
	defer d.unlockN(ctx.holder())
	// Re-check DRAM dependencies under latchN (migrations up require it,
	// so no new fine-grained page can appear once we hold it).
	loc := d.load(ctx.holder())
	if loc.dramMini != noFrame {
		return false, nil
	}
	if df := loc.dramFrame; df != noFrame && bm.dram != nil {
		if fg := bm.dram.meta[df].fg.Load(); fg != nil && !fg.fullyResident() {
			return false, nil
		}
	}
	if bm.nvm.meta[v].dirty.Load() {
		if !d.tryLockS(ctx.holder()) {
			return false, nil
		}
		// The store copies straight out of the NVM arena, and only the units
		// the frame's mask names — on a lent frame, the only units the arena
		// holds, which the store copies into the lent page in place. Frame v
		// is frozen and we hold latchN, so nothing writes it while the view
		// is in use.
		page, err := bm.nvmViewPayload(ctx.Clock, v)
		if err == nil {
			err = bm.diskWritePage(ctx.Clock, d.pid, page, bm.nvm.meta[v].diff.Load())
		}
		d.unlockS(ctx.holder())
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
	d.lockMu(ctx.holder())
	d.nvmFrame.Store(noFrame)
	d.unlockMu(ctx.holder())
	return true, nil
}
