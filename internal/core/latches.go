package core

import "github.com/spitfire-db/spitfire/internal/lockcheck"

// Latch shims: every descriptor latch acquisition in this package goes
// through these so the -tags lockcheck runtime checker (internal/lockcheck)
// sees the full acquisition order. Each takes the holder the latch is
// recorded against: the worker's, ctx.Clock.Holder(). Without the tag the
// holder is zero-size, the lockcheck calls are inlined no-ops and the shims
// compile down to the bare mutex operations. An unlock shim calls Release
// only if lockcheck.Enabled: an empty call still counts against the
// inlining budget, and a mutex's Unlock leaves too little of it.
//
// The rules they are held to are lockcheck.Violation's, at run time and in
// spitfire-vet's latchorder check, which reads each shim's rank from its
// lockcheck call.

func (d *descriptor) lockMu(h *lockcheck.Holder) {
	lockcheck.Acquire(h, d, lockcheck.RankMu)
	d.mu.Lock()
}

func (d *descriptor) unlockMu(h *lockcheck.Holder) {
	d.mu.Unlock()
	if lockcheck.Enabled {
		lockcheck.Release(h, d, lockcheck.RankMu)
	}
}

func (d *descriptor) lockD(h *lockcheck.Holder) {
	lockcheck.Acquire(h, d, lockcheck.RankD)
	d.latchD.Lock()
}

func (d *descriptor) tryLockD(h *lockcheck.Holder) bool {
	if !d.latchD.TryLock() {
		return false
	}
	lockcheck.Acquired(h, d, lockcheck.RankD)
	return true
}

func (d *descriptor) unlockD(h *lockcheck.Holder) {
	d.latchD.Unlock()
	if lockcheck.Enabled {
		lockcheck.Release(h, d, lockcheck.RankD)
	}
}

func (d *descriptor) lockN(h *lockcheck.Holder) {
	lockcheck.Acquire(h, d, lockcheck.RankN)
	d.latchN.Lock()
}

func (d *descriptor) tryLockN(h *lockcheck.Holder) bool {
	if !d.latchN.TryLock() {
		return false
	}
	lockcheck.Acquired(h, d, lockcheck.RankN)
	return true
}

func (d *descriptor) unlockN(h *lockcheck.Holder) {
	d.latchN.Unlock()
	if lockcheck.Enabled {
		lockcheck.Release(h, d, lockcheck.RankN)
	}
}

// lock acquires a frame group's mutex. fg.mu guards the residency/dirty
// bitmaps and mini-page slot directory, and is a strict leaf: nothing is
// taken while it is held. The fine-grained load path reads the NVM slot
// atomically (nvmBacking), and NVM I/O under it leaves degrading a failed
// tier, which takes every descriptor's mu, until fg.mu is released
// (nvmRead/nvmWrite, noteNVMErr).
func (fg *fgState) lock(h *lockcheck.Holder) {
	lockcheck.Acquire(h, fg, lockcheck.RankFg)
	fg.mu.Lock()
}

func (fg *fgState) unlock(h *lockcheck.Holder) {
	fg.mu.Unlock()
	if lockcheck.Enabled {
		lockcheck.Release(h, fg, lockcheck.RankFg)
	}
}

func (d *descriptor) lockS(h *lockcheck.Holder) {
	lockcheck.Acquire(h, d, lockcheck.RankS)
	d.latchS.Lock()
}

func (d *descriptor) tryLockS(h *lockcheck.Holder) bool {
	if !d.latchS.TryLock() {
		return false
	}
	lockcheck.Acquired(h, d, lockcheck.RankS)
	return true
}

func (d *descriptor) unlockS(h *lockcheck.Holder) {
	d.latchS.Unlock()
	if lockcheck.Enabled {
		lockcheck.Release(h, d, lockcheck.RankS)
	}
}
