package core

import "fmt"

// FlushDirtyDRAM flushes every dirty DRAM page down to durable media — the
// page's NVM copy if one exists, otherwise SSD. This is the checkpointing
// step of §5.2: it bounds recovery time and allows log truncation. Pages in
// the NVM buffer are deliberately *not* flushed, since NVM is persistent.
//
// The caller must be quiescent: it holds no latch and no pin, and no other
// thread pins a page. The background cleaner may still run. A page it holds
// mid-evict is waited out (latchD is taken blocking), and a page whose
// latchN or latchS it holds is retried. A page that stays pinned breaks the
// contract and is an error, as is one still latched after the retries.
func (bm *BufferManager) FlushDirtyDRAM(ctx *Ctx) (err error) {
	if bm.dram == nil {
		return nil
	}
	bm.table.Range(func(_ PageID, d *descriptor) bool {
		for i := 0; ; i++ {
			var done bool
			if done, err = bm.flushOne(ctx, d); done || err != nil {
				break
			}
			if i == waitBudget {
				err = fmt.Errorf("core: checkpoint: page %d stays latched", d.pid)
				break
			}
			backoff(i)
		}
		return err == nil
	})
	return err
}

// flushOne writes d's DRAM copy down if dirty, keeping it resident. It
// reports false if the page moved or a down-tier latch was busy, and should
// be retried.
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
	d.lockD()
	defer d.unlockD()
	// Re-verify under the latch: an eviction that held it may have moved
	// the page.
	loc = d.load()
	if !mini && loc.dramFrame != v || mini && loc.dramMini != v {
		return false, nil
	}
	if !m.freezeWait(d.pid) {
		return false, fmt.Errorf("core: checkpoint: page %d is pinned", d.pid)
	}
	defer m.thaw()
	if _, ok, err := bm.writeDown(ctx, d, v, mini); !ok {
		return false, err
	}
	bm.count(ctx.Clock, cFlushedDRAMPages)
	return true, nil
}
