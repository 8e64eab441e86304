package core

import (
	"errors"

	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/lockcheck"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/ssd"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// retryIO runs op under the one retry policy for device operations
// (device.Retry: transient faults and torn writes are retried with backoff
// charged to c; permanent failures and machine crashes are not), counting
// the retries and the final give-up.
func (bm *BufferManager) retryIO(c *vclock.Clock, op func() error) error {
	retries, err := device.Retry(c, op)
	if retries > 0 {
		bm.stats.at(c.Worker()).c[cIORetries].Add(int64(retries))
	}
	if err != nil {
		bm.count(c, cIOGiveUps)
	}
	return err
}

// nvmReadPayload / nvmWritePayload / nvmWriteHeader are the retrying,
// degradation-aware forms of the nvmPool primitives. All NVM I/O on the
// migration paths goes through them, except under a frame group's fg.mu:
// that lock is a strict leaf and degrading the tier takes descriptor.mu, so
// code holding it uses the retrying forms nvmRead/nvmWrite and passes their
// error to noteNVMErr once it has unlocked.
func (bm *BufferManager) nvmReadPayload(c *vclock.Clock, f int32, off int, buf []byte) error {
	err := bm.nvmRead(c, f, off, buf)
	bm.noteNVMErr(c.Holder(), err)
	return err
}

// nvmViewPayload is nvmReadPayload of frame f's whole payload without the
// copy (nvmPool.viewPayload).
func (bm *BufferManager) nvmViewPayload(c *vclock.Clock, f int32) (view []byte, err error) {
	err = bm.retryIO(c, func() error {
		var verr error
		view, verr = bm.nvm.viewPayload(c, f)
		return verr
	})
	bm.noteNVMErr(c.Holder(), err)
	return view, err
}

func (bm *BufferManager) nvmWritePayload(c *vclock.Clock, f int32, off int, data []byte) error {
	err := bm.nvmWrite(c, f, off, data)
	bm.noteNVMErr(c.Holder(), err)
	return err
}

func (bm *BufferManager) nvmRead(c *vclock.Clock, f int32, off int, buf []byte) error {
	return bm.retryIO(c, func() error { return bm.nvm.readPayload(c, f, off, buf) })
}

func (bm *BufferManager) nvmWrite(c *vclock.Clock, f int32, off int, data []byte) error {
	return bm.retryIO(c, func() error { return bm.nvm.writePayload(c, f, off, data) })
}

func (bm *BufferManager) nvmWriteHeader(c *vclock.Clock, f int32, pid PageID, valid bool) error {
	err := bm.retryIO(c, func() error { return bm.nvm.writeHeader(c, f, pid, valid) })
	bm.noteNVMErr(c.Holder(), err)
	return err
}

// installNVMPage installs page pid in frozen NVM frame nf: its payload, then
// the frame's mask word, then its self-identifying header, in that order.
// The header (whose checksum covers the frame id) only becomes valid after
// the payload and the word are durably in place, so a crash between the
// steps leaves an invalid frame that recovery simply frees — never a
// valid-looking frame over a half-written payload or a stale word. With lent
// nil the frame owns the page and stores all of data. Otherwise the frame
// keeps lent, the page the SSD store lends, and stores only the units of
// data named in units, which must be the page's only units that differ from
// lent; either way the payload write is charged as a whole page's
// (nvmPool.writePage).
func (bm *BufferManager) installNVMPage(c *vclock.Clock, nf int32, pid PageID, data []byte, lent *[PageSize]byte, units uint64) error {
	if lent == nil {
		units = ssd.AllUnits
	}
	err := bm.retryIO(c, func() error { return bm.nvm.writePage(c, nf, data, units) })
	if err == nil {
		err = bm.nvm.storeWord(nf, units)
	}
	bm.noteNVMErr(c.Holder(), err)
	if err != nil {
		return err
	}
	bm.nvm.meta[nf].lent.Store(lent)
	return bm.nvmWriteHeader(c, nf, pid, true)
}

// diskLendPage borrows page pid from the store (ssd.Store.Lend) under the
// retry policy; so does the write below.
func (bm *BufferManager) diskLendPage(c *vclock.Clock, pid PageID) (page []byte, err error) {
	err = bm.retryIO(c, func() error {
		var lerr error
		page, lerr = bm.disk.Lend(c, pid)
		return lerr
	})
	return page, err
}

// diskWritePage writes page pid to SSD, copying only the units in the
// write-back mask units (ssd.Store.WriteUnits).
func (bm *BufferManager) diskWritePage(c *vclock.Clock, pid PageID, data []byte, units uint64) error {
	return bm.retryIO(c, func() error { return bm.disk.WriteUnits(c, pid, data, units) })
}

// isIOErr distinguishes typed device faults from structural failures such as
// pool exhaustion: only the former should surface as fetch errors where the
// legacy behavior was to shrug and retry.
func isIOErr(err error) bool {
	return errors.Is(err, device.ErrTransient) ||
		errors.Is(err, device.ErrPermanent) ||
		errors.Is(err, device.ErrCrashed)
}

// nvmDown reports whether the NVM tier has failed permanently: the hierarchy
// has collapsed to two-tier DRAM–SSD (see degradeNVM).
func (bm *BufferManager) nvmDown() bool { return bm.nvm != nil && bm.nvm.failed.Load() }

// NVMDegraded reports whether the manager is running in two-tier DRAM–SSD
// degraded mode after a permanent NVM failure.
func (bm *BufferManager) NVMDegraded() bool { return bm.nvmDown() }

// noteNVMErr inspects the outcome of an NVM operation and collapses the
// hierarchy to two tiers on permanent failure. Transient errors (already
// retried) and crashes (the whole machine is going down) do not degrade.
func (bm *BufferManager) noteNVMErr(h *lockcheck.Holder, err error) {
	if err != nil && errors.Is(err, device.ErrPermanent) {
		bm.degradeNVM(h)
	}
}

// degradeNVM transitions the manager into two-tier DRAM–SSD mode after a
// permanent NVM failure:
//
//   - the migration policy is forced to ⟨Dr, Dw, 0, 0⟩ so no path routes new
//     traffic to the dead tier (SetPolicy keeps enforcing this afterwards);
//   - every descriptor's NVM copy is detached. A page whose DRAM copy is
//     fully resident is re-marked dirty so its latest content reaches SSD on
//     eviction; a page whose newest content lived only on the failed NVM
//     (dirty there, and not fully shadowed in DRAM) is counted as orphaned —
//     the typed-error analogue of losing a device.
//
// Exactly one caller performs the transition; later calls are no-ops.
func (bm *BufferManager) degradeNVM(h *lockcheck.Holder) {
	if bm.nvm == nil || !bm.nvm.failed.CompareAndSwap(false, true) {
		return
	}
	bm.stats.at(0).c[cNVMDegraded].Inc()

	p := *bm.pol.Load()
	p.Nr, p.Nw = 0, 0
	p.NwMode = policy.NwProbabilistic
	bm.pol.Store(&p)

	bm.table.Range(func(_ PageID, d *descriptor) bool {
		bm.detachDeadNVM(h, d)
		return true
	})
}

// detachDeadNVM unlinks d's NVM copy after the tier has failed, salvaging
// through the DRAM copy when possible. Safe to call on descriptors without
// an NVM copy. FetchPage also calls it inline for descriptors that raced the
// degradation walk.
func (bm *BufferManager) detachDeadNVM(h *lockcheck.Holder, d *descriptor) {
	d.lockMu(h)
	nf := d.nvmFrame.Load()
	if nf == noFrame {
		d.unlockMu(h)
		return
	}
	d.nvmFrame.Store(noFrame)
	df := d.dramFrame.Load()
	d.unlockMu(h)

	wasDirty := bm.nvm.meta[nf].dirty.Load()
	bm.nvm.meta[nf].pid.Store(InvalidPageID)
	bm.nvm.meta[nf].dirty.Store(false)

	salvaged := false
	if df != noFrame && bm.dram != nil {
		if fg := bm.dram.meta[df].fg.Load(); fg == nil || fg.fullyResident() {
			// The DRAM copy shadows the page in full; conservatively dirty it
			// so the content reaches SSD even if the NVM copy was the newer.
			bm.dram.meta[df].dirty.Store(true)
			bm.dram.meta[df].markDiff(ssd.AllUnits)
			salvaged = true
		}
	}
	if wasDirty && !salvaged {
		bm.stats.at(0).c[cNVMOrphanedPages].Inc()
	}
}
