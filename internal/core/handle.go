package core

import (
	"errors"
	"fmt"

	"github.com/spitfire-db/spitfire/internal/lockcheck"
	"github.com/spitfire-db/spitfire/internal/ssd"
)

// Tier identifies where a pinned page copy resides.
type Tier int

const (
	// TierDRAM is a full frame in the DRAM buffer.
	TierDRAM Tier = iota
	// TierMini is a mini frame in the DRAM buffer (HyMem's mini-page layout).
	TierMini
	// TierNVM is a frame in the NVM buffer, operated on in place.
	TierNVM
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierDRAM:
		return "DRAM"
	case TierMini:
		return "DRAM/mini"
	case TierNVM:
		return "NVM"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// how classifies the path a fetch took to produce a handle, so FetchPage's
// observability wrapper can attribute latency to the right histogram and
// trace the tier pair without re-deriving the route.
const (
	howNone uint8 = iota
	howHitDRAM
	howHitMini
	howHitNVM
	howMigrated // NVM hit migrated up to DRAM (full or mini frame)
	howMissDRAM // SSD miss loaded straight into DRAM (path ❾)
	howMissNVM  // SSD miss installed in NVM (path ❼)
)

// Handle is a pinned reference to a page copy. All data access goes through
// ReadAt/WriteAt, which charge the correct device and maintain fine-grained
// residency.
//
// A handle belongs to the Ctx it was fetched through and must be Released
// exactly once, on that Ctx's goroutine. Release returns it to the Ctx, whose
// next fetch reissues it, so neither the handle nor any pointer to it may be
// used afterwards. A second Release before the reissue panics; so does one
// that would drive the frame's pin count below zero. The lockcheck build
// never reissues a handle, so there every stale Release panics.
type Handle struct {
	ctx      *Ctx
	bm       *BufferManager // nil once released
	d        *descriptor    // nil once released
	tier     Tier
	frame    int32
	how      uint8
	released bool
	_        [24]byte // one handle per cache line: its owner writes it on every fetch and release
}

// PageID returns the logical page this handle pins.
func (h *Handle) PageID() PageID { return h.d.pid }

// Tier returns where the pinned copy currently resides. A mini-page
// promotion inside WriteAt/ReadAt may upgrade TierMini to TierDRAM.
func (h *Handle) Tier() Tier { return h.tier }

// Release unpins the page and returns the handle to its Ctx. The handle must
// not be used afterwards. A released handle keeps no reference to the
// manager or the page, so a Ctx that outlives its manager does not keep the
// manager's buffers reachable.
func (h *Handle) Release() {
	if h.released {
		panic("core: handle released twice")
	}
	h.released = true
	switch h.tier {
	case TierDRAM:
		h.bm.dram.meta[h.frame].unpin()
	case TierMini:
		h.bm.dram.mini.meta[h.frame].unpin()
	case TierNVM:
		h.bm.nvm.meta[h.frame].unpin()
	}
	h.bm, h.d = nil, nil
	if c := h.ctx; !lockcheck.Enabled && c.nHandles < ctxHandles {
		c.handles[c.nHandles] = h
		c.nHandles++
	}
}

func (h *Handle) checkRange(off, n int) error {
	if h.released {
		return errors.New("core: access through released handle")
	}
	if off < 0 || n < 0 || off+n > PageSize {
		return fmt.Errorf("core: page %d: access [%d, %d) out of page bounds", h.d.pid, off, off+n)
	}
	return nil
}

// ReadAt copies n = len(buf) bytes at in-page offset off into buf.
func (h *Handle) ReadAt(ctx *Ctx, off int, buf []byte) error {
	if err := h.checkRange(off, len(buf)); err != nil {
		return err
	}
	if len(buf) == 0 {
		return nil
	}
	switch h.tier {
	case TierDRAM:
		p := h.bm.dram
		if fg := p.meta[h.frame].fg.Load(); fg != nil {
			return h.fgRead(ctx, fg, off, buf)
		}
		p.charge.ChargeRead(ctx.Clock, p.frameOffset(h.frame)+int64(off), len(buf))
		p.read(h.frame, off, buf)
		return nil
	case TierMini:
		return h.miniAccess(ctx, off, buf, nil)
	case TierNVM:
		if err := h.bm.nvmReadPayload(ctx.Clock, h.frame, off, buf); err != nil {
			return fmt.Errorf("core: page %d: %w", h.d.pid, err)
		}
		return nil
	}
	return fmt.Errorf("core: unknown tier %v", h.tier)
}

// WriteAt stores data at in-page offset off and marks the page dirty. For
// NVM-resident pages the write is persisted immediately (clwb+sfence), which
// is what lets recovery treat the NVM buffer as durable (§5.2).
func (h *Handle) WriteAt(ctx *Ctx, off int, data []byte) error {
	if err := h.checkRange(off, len(data)); err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	switch h.tier {
	case TierDRAM:
		p := h.bm.dram
		if fg := p.meta[h.frame].fg.Load(); fg != nil {
			return h.fgWrite(ctx, fg, off, data)
		}
		p.charge.ChargeWrite(ctx.Clock, p.frameOffset(h.frame)+int64(off), len(data))
		copy(p.ownUnits(h.frame, off, len(data))[off:off+len(data)], data)
		p.meta[h.frame].markDirty()
		p.meta[h.frame].markDiff(unitMask(off, len(data)))
		return nil
	case TierMini:
		return h.miniAccess(ctx, off, nil, data)
	case TierNVM:
		if err := h.bm.nvmWritePayload(ctx.Clock, h.frame, off, data); err != nil {
			return fmt.Errorf("core: page %d: %w", h.d.pid, err)
		}
		h.bm.nvm.meta[h.frame].markDirty()
		h.bm.nvm.meta[h.frame].markDiff(unitMask(off, len(data)))
		return nil
	}
	return fmt.Errorf("core: unknown tier %v", h.tier)
}

// nvmBacking returns the page's current NVM frame, or noFrame. No pin or
// validation is needed: the NVM copy backing a partially resident DRAM page is
// never evicted from under it (unlinkNVM), and the caller pins that page.
func (h *Handle) nvmBacking() int32 { return h.d.nvmFrame.Load() }

// fgLoadUnits faults the non-resident units in [first, last] in from the
// NVM copy. The unit loads of one access are charged as a single NVM read
// operation (one latency, summed media traffic): the CPU issues them as
// pipelined loads, which is why HyMem's 64 B granularity costs only modest
// extra bandwidth on Optane rather than a per-line latency each (§6.5,
// Figure 11). forWrite skips units the caller will fully overwrite.
// Caller holds fg.mu, and passes an error to noteNVMErr once it has
// unlocked it.
func (h *Handle) fgLoadUnits(ctx *Ctx, fg *fgState, first, last, off, n int, forWrite bool) error {
	p := h.bm.dram
	// Gather the units that need an NVM fill before touching the arena, so
	// an injected fault loads nothing: residency only advances after the
	// device read below succeeds.
	var need []int
	for u := first; u <= last; u++ {
		if fg.isResident(u) {
			continue
		}
		uo := u * fg.unit
		if forWrite && off <= uo && uo+fg.unit <= off+n {
			fg.setResident(u) // fully overwritten; no fill needed
			continue
		}
		need = append(need, u)
	}
	if len(need) == 0 {
		return nil
	}
	nf := h.nvmBacking()
	if nf == noFrame {
		return fmt.Errorf("core: page %d: fine-grained page lost its NVM backing", h.d.pid)
	}
	// The demand loads of one access are charged as a single NVM read
	// operation (one latency, summed media traffic): the CPU issues them as
	// pipelined loads, but units smaller than the device block (256 B on
	// Optane) still transfer a whole block each — the I/O amplification
	// Figure 11 measures. The read is checked: per-unit NVM faults surface
	// here (retried, degradation-aware) instead of being absorbed silently.
	dev := h.bm.nvm.pm.Device()
	g := dev.Params().Granularity
	mediaPer := (fg.unit + g - 1) / g * g
	err := h.bm.retryIO(ctx.Clock, func() error {
		_, rerr := dev.ReadErr(ctx.Clock, len(need)*mediaPer)
		return rerr
	})
	if err != nil {
		return fmt.Errorf("core: page %d: load %d fine-grained units: %w", h.d.pid, len(need), err)
	}
	for _, u := range need {
		uo := u * fg.unit
		h.bm.nvm.copyOut(nf, uo, p.arenaFrame(h.frame)[uo:uo+fg.unit])
		fg.setResident(u)
		h.bm.count(ctx.Clock, cFGUnitLoads)
	}
	p.charge.ChargeWrite(ctx.Clock, p.frameOffset(h.frame), len(need)*fg.unit)
	return nil
}

// fgRead serves a read from a cache-line-grained full frame, faulting
// missing units in from the NVM copy.
func (h *Handle) fgRead(ctx *Ctx, fg *fgState, off int, buf []byte) error {
	p := h.bm.dram
	first, last := unitRange(fg.unit, off, len(buf))
	fg.lock(ctx.holder())
	if err := h.fgLoadUnits(ctx, fg, first, last, off, len(buf), false); err != nil {
		fg.unlock(ctx.holder())
		h.bm.noteNVMErr(ctx.holder(), err)
		return err
	}
	p.charge.ChargeRead(ctx.Clock, p.frameOffset(h.frame)+int64(off), len(buf))
	copy(buf, p.arenaFrame(h.frame)[off:off+len(buf)])
	fg.unlock(ctx.holder())
	return nil
}

// fgWrite serves a write on a cache-line-grained full frame. Units only
// partially covered by the write are faulted in first so their untouched
// bytes stay correct.
func (h *Handle) fgWrite(ctx *Ctx, fg *fgState, off int, data []byte) error {
	p := h.bm.dram
	first, last := unitRange(fg.unit, off, len(data))
	fg.lock(ctx.holder())
	if err := h.fgLoadUnits(ctx, fg, first, last, off, len(data), true); err != nil {
		fg.unlock(ctx.holder())
		h.bm.noteNVMErr(ctx.holder(), err)
		return err
	}
	p.charge.ChargeWrite(ctx.Clock, p.frameOffset(h.frame)+int64(off), len(data))
	copy(p.arenaFrame(h.frame)[off:off+len(data)], data)
	for u := first; u <= last; u++ {
		fg.setDirty(u)
	}
	fg.unlock(ctx.holder())
	p.meta[h.frame].markDirty()
	return nil
}

// miniAccess serves a read (buf != nil) or write (data != nil) on a mini
// page. Units present in the slot directory are served from the mini frame;
// absent units are loaded into free slots. When the directory overflows the
// page is promoted to a full frame (as HyMem does, §2.1); if promotion is
// not possible right now, slot-less units are served directly against the
// NVM copy — which is safe because an NVM frame backing a mini page is
// never evicted out from under it.
func (h *Handle) miniAccess(ctx *Ctx, off int, buf, data []byte) error {
	mp := h.bm.dram.mini
	fg := mp.meta[h.frame].fg.Load()
	if fg == nil {
		return fmt.Errorf("core: page %d: mini frame without fine-grained state", h.d.pid)
	}
	n := len(buf) + len(data) // exactly one of buf/data is non-nil
	first, last := unitRange(fg.unit, off, n)

	fg.lock(ctx.holder())
	// Give every touched unit a slot while capacity lasts.
	overflow := false
	for u := first; u <= last; u++ {
		if fg.findSlot(u) != noSlot {
			continue
		}
		if fg.slotCount >= miniSlots {
			overflow = true
			break
		}
		nf := h.nvmBacking()
		if nf == noFrame {
			fg.unlock(ctx.holder())
			return fmt.Errorf("core: page %d: mini page lost its NVM backing", h.d.pid)
		}
		s := fg.slotCount
		fg.slots[s] = int32(u)
		fg.slotCount++
		dst := mp.data(h.frame)[s*fg.unit : (s+1)*fg.unit]
		if err := h.bm.nvmRead(ctx.Clock, nf, u*fg.unit, dst); err != nil {
			fg.slotCount-- // roll the half-filled slot back
			fg.unlock(ctx.holder())
			h.bm.noteNVMErr(ctx.holder(), err)
			return fmt.Errorf("core: page %d: %w", h.d.pid, err)
		}
		h.bm.dram.charge.ChargeWrite(ctx.Clock, int64(int(h.frame)*mp.slotSize+s*fg.unit), fg.unit)
		h.bm.count(ctx.Clock, cFGUnitLoads)
	}
	if overflow {
		fg.unlock(ctx.holder())
		if h.promoteMini(ctx) {
			// Re-dispatch on the upgraded (full-frame) handle.
			if buf != nil {
				return h.ReadAt(ctx, off, buf)
			}
			return h.WriteAt(ctx, off, data)
		}
		fg.lock(ctx.holder()) // promotion contended; serve mixed below
	}

	// Serve the access unit by unit: slotted units from the mini frame,
	// slot-less units (overflow fallback) directly against the NVM copy.
	frame := mp.data(h.frame)
	dirtied := false
	for u := first; u <= last; u++ {
		uo := u * fg.unit
		lo, hi := max(off, uo), min(off+n, uo+fg.unit)
		s := fg.findSlot(u)
		if s == noSlot {
			nf := h.nvmBacking()
			if nf == noFrame {
				fg.unlock(ctx.holder())
				return fmt.Errorf("core: page %d: mini page lost its NVM backing", h.d.pid)
			}
			if buf != nil {
				if err := h.bm.nvmRead(ctx.Clock, nf, lo, buf[lo-off:hi-off]); err != nil {
					fg.unlock(ctx.holder())
					h.bm.noteNVMErr(ctx.holder(), err)
					return fmt.Errorf("core: page %d: %w", h.d.pid, err)
				}
			} else {
				if err := h.bm.nvmWrite(ctx.Clock, nf, lo, data[lo-off:hi-off]); err != nil {
					fg.unlock(ctx.holder())
					h.bm.noteNVMErr(ctx.holder(), err)
					return fmt.Errorf("core: page %d: %w", h.d.pid, err)
				}
				h.bm.nvm.meta[nf].dirty.Store(true)
				h.bm.nvm.meta[nf].markDiff(unitMask(lo, hi-lo))
			}
			continue
		}
		slotOff := s*fg.unit + (lo - uo)
		if buf != nil {
			h.bm.dram.charge.ChargeRead(ctx.Clock, int64(int(h.frame)*mp.slotSize+slotOff), hi-lo)
			copy(buf[lo-off:hi-off], frame[slotOff:slotOff+(hi-lo)])
		} else {
			h.bm.dram.charge.ChargeWrite(ctx.Clock, int64(int(h.frame)*mp.slotSize+slotOff), hi-lo)
			copy(frame[slotOff:slotOff+(hi-lo)], data[lo-off:hi-off])
			fg.slotDirty |= 1 << uint(s)
			dirtied = true
		}
	}
	fg.unlock(ctx.holder())
	if dirtied {
		mp.meta[h.frame].markDirty()
	}
	return nil
}

// promoteMini upgrades the handle's mini page to a full cache-line-grained
// frame, as HyMem does transparently on overflow (§2.1). It requires being
// the page's only pinner; on contention it reports false and the caller
// falls back to accessing the NVM copy directly.
func (h *Handle) promoteMini(ctx *Ctx) bool {
	mp := h.bm.dram.mini
	m := &mp.meta[h.frame]
	// Wait to be the sole pinner, then freeze (pins 1 -> -1 via our own pin).
	frozen := false
	for i := 0; i < waitBudget; i++ {
		if m.pins.CompareAndSwap(1, -1) {
			frozen = true
			break
		}
		backoff(i)
	}
	if !frozen {
		return false
	}
	fg := m.fg.Load()

	f, err := h.bm.dram.alloc(ctx)
	if err != nil {
		m.pins.Store(1) // un-freeze back to our single pin
		return false
	}

	newFG := newFullFG(fg.unit)
	full := h.bm.dram.arenaFrame(f)
	fg.lock(ctx.holder())
	src := mp.data(h.frame)
	for s := 0; s < fg.slotCount; s++ {
		u := int(fg.slots[s])
		uo := u * fg.unit
		copy(full[uo:uo+fg.unit], src[s*fg.unit:(s+1)*fg.unit])
		newFG.setResident(u)
		if fg.slotDirty&(1<<uint(s)) != 0 {
			newFG.setDirty(u)
		}
	}
	h.bm.dram.charge.ChargeWrite(ctx.Clock, h.bm.dram.frameOffset(f), fg.slotCount*fg.unit)
	fg.unlock(ctx.holder())

	dirty := m.dirty.Load()
	h.bm.dram.meta[f].pid.Store(h.d.pid)
	h.bm.dram.meta[f].dirty.Store(dirty)
	h.bm.dram.meta[f].diff.Store(ssd.AllUnits)
	h.bm.dram.meta[f].fg.Store(newFG)

	// Full-frame slot first, mini slot second: a lock-free reader that finds
	// the mini slot empty then finds the full frame (fetchPage's NVM hit
	// re-check reads them in that order).
	old := h.frame
	h.d.lockMu(ctx.holder())
	h.d.dramFrame.Store(f)
	h.d.dramMini.Store(noFrame)
	h.d.unlockMu(ctx.holder())

	h.bm.dram.meta[f].pins.Store(1) // transfer our pin to the full frame
	h.bm.dram.ref(f)
	mp.release(ctx.holder(), old)
	h.tier = TierDRAM
	h.frame = f
	h.bm.count(ctx.Clock, cMiniPromotions)
	return true
}
