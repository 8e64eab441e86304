package core

import (
	"errors"
	"fmt"
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
// manager used. Recovered pages are conservatively marked dirty relative to
// SSD so they are written back when evicted.
func Recover(cfg Config) (*BufferManager, error) {
	if cfg.PMem == nil {
		return nil, errors.New("core: Recover requires the surviving PMem arena")
	}
	// Defer cleaner startup until after the scan: the cleaners must not race
	// the free-list rebuild below.
	enableCleaner := cfg.Cleaner.Enable
	cfg.Cleaner.Enable = false
	bm, err := New(cfg)
	if err != nil {
		return nil, err
	}
	np := bm.nvm
	if np == nil {
		return nil, errors.New("core: Recover requires an NVM tier")
	}

	ctx := NewCtx(0)

	// Drain the free lists so we can re-seed them with only the frames that
	// are actually free. takeFree sweeps every shard, so draining until it
	// fails empties all of them.
	for {
		if _, ok := np.takeFree(0); !ok {
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
			np.release(f) // still frozen and untagged, as New built it
			continue
		}
		seen[pid] = f
		np.meta[f].pid.Store(pid)
		np.meta[f].dirty.Store(true) // conservatively newer than SSD
		np.meta[f].pins.Store(0)
		d := bm.descriptorFor(pid)
		d.lockMu()
		d.nvmFrame.Store(f)
		d.unlockMu()
		bm.count(ctx.Clock, cRecoveredNVMPages)
		if pid >= maxPID {
			maxPID = pid + 1
		}
	}
	if bm.nextPID.Load() < maxPID {
		bm.nextPID.Store(maxPID)
	}
	if enableCleaner {
		bm.cfg.Cleaner.Enable = true
		bm.startCleaners()
	}
	return bm, nil
}
