package core

import "github.com/spitfire-db/spitfire/internal/lockcheck"

// Latch shims: every descriptor latch acquisition in this package goes
// through these so the -tags lockcheck runtime checker (internal/lockcheck)
// sees the full acquisition order. Without the tag the lockcheck calls are
// inlined no-ops and the shims compile down to the bare mutex operations.
//
// The discipline they witness is the one documented on descriptor:
// latchD → latchN → latchS on one descriptor (skipping allowed), mu a
// strict leaf, and second descriptors only via TryLock.

func (d *descriptor) lockMu() {
	lockcheck.Acquire(d, lockcheck.RankMu)
	d.mu.Lock()
}

func (d *descriptor) unlockMu() {
	d.mu.Unlock()
	lockcheck.Release(d, lockcheck.RankMu)
}

func (d *descriptor) lockD() {
	lockcheck.Acquire(d, lockcheck.RankD)
	d.latchD.Lock()
}

func (d *descriptor) tryLockD() bool {
	if !d.latchD.TryLock() {
		return false
	}
	lockcheck.Acquired(d, lockcheck.RankD)
	return true
}

func (d *descriptor) unlockD() {
	d.latchD.Unlock()
	lockcheck.Release(d, lockcheck.RankD)
}

func (d *descriptor) lockN() {
	lockcheck.Acquire(d, lockcheck.RankN)
	d.latchN.Lock()
}

func (d *descriptor) tryLockN() bool {
	if !d.latchN.TryLock() {
		return false
	}
	lockcheck.Acquired(d, lockcheck.RankN)
	return true
}

func (d *descriptor) unlockN() {
	d.latchN.Unlock()
	lockcheck.Release(d, lockcheck.RankN)
}

// lock acquires a frame group's mutex. fg.mu guards the residency/dirty
// bitmaps and mini-page slot directory; the only latch that may be taken
// while it is held is descriptor.mu (safe because mu is a strict leaf). The
// fine-grained load path takes nothing under it: it reads the NVM slot
// atomically (nvmBacking).
func (fg *fgState) lock() {
	lockcheck.Acquire(fg, lockcheck.RankFg)
	fg.mu.Lock()
}

func (fg *fgState) unlock() {
	fg.mu.Unlock()
	lockcheck.Release(fg, lockcheck.RankFg)
}

func (d *descriptor) lockS() {
	lockcheck.Acquire(d, lockcheck.RankS)
	d.latchS.Lock()
}

func (d *descriptor) tryLockS() bool {
	if !d.latchS.TryLock() {
		return false
	}
	lockcheck.Acquired(d, lockcheck.RankS)
	return true
}

func (d *descriptor) unlockS() {
	d.latchS.Unlock()
	lockcheck.Release(d, lockcheck.RankS)
}
