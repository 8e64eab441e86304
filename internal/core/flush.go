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

// flushOne writes d's DRAM copy down if dirty, keeping it resident. It
// reports false if the page was busy and should be retried.
func (bm *BufferManager) flushOne(ctx *Ctx, d *descriptor) (bool, error) {
	loc := d.load()
	v, mini := loc.dramFrame, false
	if v == noFrame {
		v, mini = loc.dramMini, true
	}
	if v == noFrame {
		return true, nil
	}
	m := &bm.dram.meta[v]
	if mini {
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
	if !mini && loc.dramFrame != v || mini && loc.dramMini != v {
		return false, nil
	}
	if !m.freezeWait(d.pid) {
		return false, nil
	}
	defer m.thaw()
	if _, ok, err := bm.writeDown(ctx, d, v, mini); !ok {
		return false, err
	}
	bm.count(ctx.Clock, cFlushedDRAMPages)
	return true, nil
}
