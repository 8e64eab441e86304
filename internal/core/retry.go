package core

import (
	"errors"

	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/policy"
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
// migration paths goes through them.
func (bm *BufferManager) nvmReadPayload(c *vclock.Clock, f int32, off int, buf []byte) error {
	err := bm.retryIO(c, func() error { return bm.nvm.readPayload(c, f, off, buf) })
	bm.noteNVMErr(err)
	return err
}

func (bm *BufferManager) nvmWritePayload(c *vclock.Clock, f int32, off int, data []byte) error {
	err := bm.retryIO(c, func() error { return bm.nvm.writePayload(c, f, off, data) })
	bm.noteNVMErr(err)
	return err
}

func (bm *BufferManager) nvmWriteHeader(c *vclock.Clock, f int32, pid PageID, valid bool) error {
	err := bm.retryIO(c, func() error { return bm.nvm.writeHeader(c, f, pid, valid) })
	bm.noteNVMErr(err)
	return err
}

// installNVMPage writes a full page into frozen NVM frame nf and then its
// self-identifying header, in that order: the header (whose checksum covers
// the frame id) only becomes valid after the payload is durably in place, so
// a crash between the two steps leaves an invalid frame that recovery simply
// frees — never a valid-looking frame over a half-written payload.
func (bm *BufferManager) installNVMPage(c *vclock.Clock, nf int32, pid PageID, data []byte) error {
	if err := bm.nvmWritePayload(c, nf, 0, data); err != nil {
		return err
	}
	return bm.nvmWriteHeader(c, nf, pid, true)
}

// diskReadPage / diskWritePage wrap SSD page I/O with the retry policy.
func (bm *BufferManager) diskReadPage(c *vclock.Clock, pid PageID, buf []byte) error {
	return bm.retryIO(c, func() error { return bm.disk.ReadPage(c, pid, buf) })
}

func (bm *BufferManager) diskWritePage(c *vclock.Clock, pid PageID, data []byte) error {
	return bm.retryIO(c, func() error { return bm.disk.WritePage(c, pid, data) })
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
func (bm *BufferManager) noteNVMErr(err error) {
	if err != nil && errors.Is(err, device.ErrPermanent) {
		bm.degradeNVM()
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
func (bm *BufferManager) degradeNVM() {
	if bm.nvm == nil || !bm.nvm.failed.CompareAndSwap(false, true) {
		return
	}
	bm.stats.at(0).c[cNVMDegraded].Inc()

	p := *bm.pol.Load()
	p.Nr, p.Nw = 0, 0
	p.NwMode = policy.NwProbabilistic
	bm.pol.Store(&p)

	bm.table.Range(func(_ PageID, d *descriptor) bool {
		bm.detachDeadNVM(d)
		return true
	})
}

// detachDeadNVM unlinks d's NVM copy after the tier has failed, salvaging
// through the DRAM copy when possible. Safe to call on descriptors without
// an NVM copy. FetchPage also calls it inline for descriptors that raced the
// degradation walk.
func (bm *BufferManager) detachDeadNVM(d *descriptor) {
	d.lockMu()
	nf := d.nvmFrame.Load()
	if nf == noFrame {
		d.unlockMu()
		return
	}
	d.nvmFrame.Store(noFrame)
	df := d.dramFrame.Load()
	d.unlockMu()

	wasDirty := bm.nvm.meta[nf].dirty.Load()
	bm.nvm.meta[nf].pid.Store(InvalidPageID)
	bm.nvm.meta[nf].dirty.Store(false)
	bm.nvm.meta[nf].clAdmit.Store(false)

	salvaged := false
	if df != noFrame && bm.dram != nil {
		if fg := bm.dram.meta[df].fg.Load(); fg == nil || fg.fullyResident() {
			// The DRAM copy shadows the page in full; conservatively dirty it
			// so the content reaches SSD even if the NVM copy was the newer.
			bm.dram.meta[df].dirty.Store(true)
			salvaged = true
		}
	}
	if wasDirty && !salvaged {
		bm.stats.at(0).c[cNVMOrphanedPages].Inc()
	}
}

// StartCleaners launches the background cleaner goroutines if they are not
// already running. Recovery flows construct the manager with cleaners off,
// audit it (CheckConsistency), and then call this; the explicit call enables
// the cleaner even when the construction-time config left it off.
func (bm *BufferManager) StartCleaners() {
	if bm.cfg.Cleaner.Enable {
		return
	}
	bm.cfg.Cleaner.Enable = true
	bm.startCleaners()
}
