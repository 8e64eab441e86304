package core

// FlushDirtyDRAM flushes every dirty DRAM page down to durable media — the
// page's NVM copy if one exists, otherwise SSD. This is the checkpointing
// step of §5.2: it bounds recovery time and allows log truncation. Pages in
// the NVM buffer are deliberately *not* flushed, since NVM is persistent.
//
// Pages that are pinned or under concurrent migration are skipped; the
// number of skipped pages is returned so callers can re-run until zero
// (checkpoints are quiescent in the experiments).
func (bm *BufferManager) FlushDirtyDRAM(ctx *Ctx) (skipped int, err error) {
	if bm.dram == nil {
		return 0, nil
	}
	bm.table.Range(func(_ PageID, d *descriptor) bool {
		var ok bool
		if ok, err = bm.flushOne(ctx, d); !ok && err == nil {
			skipped++
		}
		return err == nil
	})
	return skipped, err
}

// flushOne flushes d's DRAM copy if dirty. It reports false if the page was
// busy and should be retried.
func (bm *BufferManager) flushOne(ctx *Ctx, d *descriptor) (bool, error) {
	loc := d.load()
	mini := loc.dramMini != noFrame
	full := loc.dramFrame != noFrame
	if !mini && !full {
		return true, nil
	}
	var m *frameMeta
	var v int32
	if full {
		v = loc.dramFrame
		m = &bm.dram.meta[v]
	} else {
		v = loc.dramMini
		m = &bm.dram.mini.meta[v]
	}
	if !m.dirty.Load() {
		return true, nil
	}
	if !d.tryLockD() {
		return false, nil
	}
	defer d.unlockD()
	// Re-verify under the latch.
	loc = d.load()
	if full && loc.dramFrame != v || mini && loc.dramMini != v {
		return false, nil
	}
	if !m.freezeWait(d.pid) {
		return false, nil
	}
	defer m.thaw()

	if mini {
		// Reuse the eviction write-back logic for mini slots, but keep the
		// page resident: write dirty slots into the NVM copy.
		fg := m.fg.Load()
		if fg == nil || !fg.slotDirtyAny() {
			m.dirty.Store(false)
			return true, nil
		}
		if loc.nvmFrame == noFrame {
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
		data := bm.dram.mini.data(v)
		var werr error
		for s := 0; s < fg.slotCount; s++ {
			if fg.slotDirty&(1<<uint(s)) == 0 {
				continue
			}
			u := int(fg.slots[s])
			if werr = bm.nvmWrite(ctx.Clock, loc.nvmFrame, u*fg.unit, data[s*fg.unit:(s+1)*fg.unit]); werr != nil {
				break
			}
		}
		if werr == nil {
			fg.clearDirty()
		}
		fg.unlock()
		if werr != nil {
			bm.noteNVMErr(werr)
			return false, werr
		}
		nm.dirty.Store(true)
		m.dirty.Store(false)
		bm.count(ctx.Clock, cFlushedDRAMPages)
		return true, nil
	}

	fg := m.fg.Load()
	frame := bm.dram.frame(v)
	if loc.nvmFrame != noFrame {
		if !d.tryLockN() {
			return false, nil
		}
		defer d.unlockN()
		nm := &bm.nvm.meta[loc.nvmFrame]
		if !nm.freezeWait(d.pid) {
			return false, nil
		}
		defer nm.thaw()
		if fg != nil {
			fg.lock()
			var werr error
			for u := 0; u < fg.unitsPerPage(); u++ {
				if fg.isDirty(u) {
					off := u * fg.unit
					if werr = bm.nvmWrite(ctx.Clock, loc.nvmFrame, off, frame[off:off+fg.unit]); werr != nil {
						break
					}
				}
			}
			if werr == nil {
				fg.clearDirty()
			}
			fg.unlock()
			if werr != nil {
				bm.noteNVMErr(werr)
				return false, werr
			}
		} else {
			bm.dram.charge.ChargeRead(ctx.Clock, bm.dram.frameOffset(v), PageSize)
			if err := bm.nvmWritePayload(ctx.Clock, loc.nvmFrame, 0, frame); err != nil {
				return false, err
			}
		}
		nm.dirty.Store(true)
		m.dirty.Store(false)
		bm.count(ctx.Clock, cFlushedDRAMPages)
		return true, nil
	}

	// No NVM copy: checkpoint straight to SSD. (A fine-grained page with
	// no NVM copy is fully resident by invariant.)
	if !d.tryLockS() {
		return false, nil
	}
	defer d.unlockS()
	bm.dram.charge.ChargeRead(ctx.Clock, bm.dram.frameOffset(v), PageSize)
	if err := bm.diskWritePage(ctx.Clock, d.pid, frame); err != nil {
		return false, err
	}
	if fg != nil {
		fg.lock()
		fg.clearDirty()
		fg.unlock()
	}
	m.dirty.Store(false)
	bm.count(ctx.Clock, cFlushedDRAMPages)
	return true, nil
}

// FlushAll flushes dirty DRAM pages (as FlushDirtyDRAM) and then writes
// every dirty NVM page back to SSD, leaving the whole database clean on
// disk. Used for orderly shutdown and by tests that compare against the SSD
// image. The caller must be quiescent.
func (bm *BufferManager) FlushAll(ctx *Ctx) error {
	for i := 0; i < 16; i++ {
		skipped, err := bm.FlushDirtyDRAM(ctx)
		if err != nil {
			return err
		}
		if skipped == 0 {
			break
		}
	}
	if bm.nvm == nil {
		return nil
	}
	var err error
	bm.table.Range(func(_ PageID, d *descriptor) bool {
		loc := d.load()
		if loc.nvmFrame == noFrame || !bm.nvm.meta[loc.nvmFrame].dirty.Load() {
			return true
		}
		d.lockN()
		d.lockS()
		loc = d.load()
		if loc.nvmFrame != noFrame && bm.nvm.meta[loc.nvmFrame].dirty.Load() {
			buf := ctx.buf()
			err = bm.nvmReadPayload(ctx.Clock, loc.nvmFrame, 0, buf)
			if err == nil {
				err = bm.diskWritePage(ctx.Clock, d.pid, buf)
			}
			if err == nil {
				bm.nvm.meta[loc.nvmFrame].dirty.Store(false)
				bm.count(ctx.Clock, cFlushedNVMPages)
			}
		}
		d.unlockS()
		d.unlockN()
		return err == nil
	})
	return err
}
