package core

import (
	"errors"
	"fmt"

	"github.com/spitfire-db/spitfire/internal/ssd"
)

// Recover builds a buffer manager on top of a surviving NVM arena after a
// (simulated) crash. This is the first step of the paper's recovery
// protocol (§5.2): the NVM buffer is scanned to collect the page ids of its
// self-identifying frames and the mapping table is reconstructed, so the
// latest durable version of every NVM-resident page is immediately
// available. (Completing the log and running analysis/redo/undo is the WAL
// manager's job, layered on top of the recovered buffer manager.)
//
// cfg must carry the surviving PMem arena and the same geometry the crashed
// manager used, and the same SSD store. Recovered pages are conservatively
// marked dirty relative to SSD so they are written back when evicted. A
// frame whose mask word (nvmPool.storeWord) is not ssd.AllUnits borrowed its
// page from the store before the crash: it comes back lent the same page
// (ssd.Store.Relend, which reads nothing) with the word as its write-back
// mask, so its write-back hands the store just those units. Like New, it
// starts no cleaner goroutine: the caller audits the quiescent manager, then
// calls StartCleaners.
func Recover(cfg Config) (*BufferManager, error) {
	if cfg.PMem == nil {
		return nil, errors.New("core: Recover requires the surviving PMem arena")
	}
	bm, err := New(cfg)
	if err != nil {
		return nil, err
	}
	np := bm.nvm
	if np == nil {
		return nil, errors.New("core: Recover requires an NVM tier")
	}

	ctx := NewCtx(0)

	// Drain the free list so we can re-seed it with only the frames that are
	// actually free.
	for {
		if _, ok := np.takeFree(ctx.holder()); !ok {
			break
		}
	}

	maxPID := PageID(0)
	seen := make(map[PageID]int32)
	for i := 0; i < np.nFrames; i++ {
		f := int32(i)
		// The scan itself reads every header from NVM; charge it.
		np.pm.Device().Read(ctx.Clock, 16)
		pid, valid := np.readHeader(f)
		if _, dup := seen[pid]; valid && dup {
			// Two frames claim the same page (a crash between header
			// persist and descriptor publish can leave a torn install).
			// Keep the first and retire the other.
			if err := np.writeHeader(ctx.Clock, f, InvalidPageID, false); err != nil {
				// Leaving the stale header durable would let the *next*
				// recovery resurrect it; fail loudly instead.
				bm.Close()
				return nil, fmt.Errorf("core: recover: retiring duplicate frame %d: %w", f, err)
			}
			valid = false
		}
		if !valid {
			np.release(ctx.holder(), f) // still frozen and untagged, as New built it
			continue
		}
		// Conservatively newer than SSD in every unit the arena holds: all of
		// them, or those a lent frame's mask word names.
		diff := np.readWord(f)
		if diff != ssd.AllUnits {
			page, err := bm.disk.Relend(pid)
			if err != nil {
				bm.Close()
				return nil, fmt.Errorf("core: recover: NVM frame %d was lent page %d: %w", f, pid, err)
			}
			np.meta[f].lent.Store((*[PageSize]byte)(page))
		}
		seen[pid] = f
		np.meta[f].pid.Store(pid)
		np.meta[f].dirty.Store(true)
		np.meta[f].diff.Store(diff)
		np.meta[f].pins.Store(0)
		d := bm.descriptorFor(pid)
		d.lockMu(ctx.holder())
		d.nvmFrame.Store(f)
		d.unlockMu(ctx.holder())
		bm.count(ctx.Clock, cRecoveredNVMPages)
		if pid >= maxPID {
			maxPID = pid + 1
		}
	}
	if bm.nextPID.Load() < maxPID {
		bm.nextPID.Store(maxPID)
	}
	return bm, nil
}
