// Package latch is a vet fixture: latches taken through lockcheck shims,
// exercised against each rule of the latch discipline. Nothing here is
// recognized by its shape or its names; every rank comes from the
// fix/internal/lockcheck call inside a shim.
package latch

import (
	"sync"
	"sync/atomic"

	"fix/internal/device"
	"fix/internal/lockcheck"
)

type descriptor struct {
	pid    uint64
	latchD sync.Mutex
	latchN sync.Mutex
	latchS sync.Mutex
	mu     sync.Mutex
	frame  atomic.Int32 // written under mu, read atomically
}

// frameMeta mirrors internal/core's: the page a frame holds and its pins.
type frameMeta struct {
	pid  atomic.Uint64
	pins atomic.Int32
}

// Shims mirroring internal/core's latches.go.

func (d *descriptor) lockD(h *lockcheck.Holder) {
	lockcheck.Acquire(h, d, lockcheck.RankD)
	d.latchD.Lock()
}

func (d *descriptor) unlockD(h *lockcheck.Holder) {
	d.latchD.Unlock()
	lockcheck.Release(h, d, lockcheck.RankD)
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
	lockcheck.Release(h, d, lockcheck.RankN)
}

func (d *descriptor) lockS(h *lockcheck.Holder) {
	lockcheck.Acquire(h, d, lockcheck.RankS)
	d.latchS.Lock()
}

func (d *descriptor) unlockS(h *lockcheck.Holder) {
	d.latchS.Unlock()
	lockcheck.Release(h, d, lockcheck.RankS)
}

func (d *descriptor) lockMu(h *lockcheck.Holder) {
	lockcheck.Acquire(h, d, lockcheck.RankMu)
	d.mu.Lock()
}

func (d *descriptor) unlockMu(h *lockcheck.Holder) {
	d.mu.Unlock()
	lockcheck.Release(h, d, lockcheck.RankMu)
}

// Inverted acquires tier latches out of order.
func Inverted(h *lockcheck.Holder, d *descriptor) {
	d.lockS(h)
	d.lockN(h) // want latchorder
	d.unlockN(h)
	d.unlockS(h)
}

// TryInverted does the same inversion by TryLock, which does not excuse it.
func TryInverted(h *lockcheck.Holder, d *descriptor) {
	d.lockS(h)
	if !d.tryLockN(h) { // want latchorder
		return
	}
	d.unlockN(h)
	d.unlockS(h)
}

// UnderMu acquires a latch and performs device I/O under the leaf lock.
func UnderMu(h *lockcheck.Holder, d *descriptor, b []byte) {
	d.lockMu(h)
	d.lockD(h)                                   // want latchorder
	if err := device.WriteAt(0, b); err != nil { // want latchorder
		_ = err
	}
	d.unlockD(h)
	d.unlockMu(h)
}

// SecondBlocking takes a blocking tier latch on a second descriptor.
func SecondBlocking(h *lockcheck.Holder, a, b *descriptor) {
	a.lockD(h)
	b.lockD(h) // want latchorder
	b.unlockD(h)
	a.unlockD(h)
}

// Bypass locks a shim's mutex directly, where lockcheck cannot see it.
func Bypass(d *descriptor) {
	d.latchN.Lock() // want latchorder
	d.latchN.Unlock()
}

// Clean follows the discipline: tiers in order with skips, TryLock for the
// second descriptor, mu taken strictly as a leaf (nothing under it), and a
// blocking mu on a second descriptor (legal: mu is a leaf everywhere).
func Clean(h *lockcheck.Holder, a, b *descriptor, buf []byte) error {
	a.lockD(h)
	defer a.unlockD(h)
	if err := device.WriteAt(0, buf); err != nil { // I/O under tier latch is fine
		return err
	}
	a.lockS(h) // skipping latchN is fine
	a.unlockS(h)
	if b.tryLockN(h) {
		b.unlockN(h)
	}
	a.lockMu(h)
	a.unlockMu(h)
	b.lockMu(h)
	b.unlockMu(h)
	return nil
}

// OptimisticHit is the lock-free hit: the slot is read without mu, so the
// reader pins the frame it names and validates the frame's page id before
// trusting it. It acquires nothing and is clean under every rule.
func OptimisticHit(d *descriptor, meta []frameMeta) bool {
	f := d.frame.Load()
	if f < 0 {
		return false
	}
	m := &meta[f]
	if p := m.pins.Load(); p < 0 || !m.pins.CompareAndSwap(p, p+1) {
		return false
	}
	if m.pid.Load() != d.pid {
		m.pins.Add(-1)
		return false
	}
	return true
}

// Publish is the writer's half, also clean: under the tier latch, tag the
// frame, set the slot under mu (the leaf, nothing beneath it), thaw last.
func Publish(h *lockcheck.Holder, d *descriptor, meta []frameMeta, f int32) {
	d.lockD(h)
	defer d.unlockD(h)
	meta[f].pid.Store(d.pid)
	d.lockMu(h)
	d.frame.Store(f)
	d.unlockMu(h)
	meta[f].pins.Store(0)
}

// fgroup stands in for internal/core's frame group.
type fgroup struct{ mu sync.Mutex }

func (fg *fgroup) lock(h *lockcheck.Holder) {
	lockcheck.Acquire(h, fg, lockcheck.RankFg)
	fg.mu.Lock()
}

func (fg *fgroup) unlock(h *lockcheck.Holder) {
	fg.mu.Unlock()
	lockcheck.Release(h, fg, lockcheck.RankFg)
}

// walShard and walManager stand in for internal/wal's: the shard shims take
// the shard as an argument, so the argument names the latch.
type walShard struct{ mu sync.Mutex }

type walManager struct{ flushMu sync.Mutex }

func (m *walManager) lockShard(h *lockcheck.Holder, sh *walShard) {
	lockcheck.Acquire(h, sh, lockcheck.RankWALShard)
	sh.mu.Lock()
}

func (m *walManager) unlockShard(h *lockcheck.Holder, sh *walShard) {
	sh.mu.Unlock()
	lockcheck.Release(h, sh, lockcheck.RankWALShard)
}

func (m *walManager) lockFlush(h *lockcheck.Holder) {
	lockcheck.Acquire(h, m, lockcheck.RankWALFlush)
	m.flushMu.Lock()
}

func (m *walManager) tryLockFlush(h *lockcheck.Holder) bool {
	if !m.flushMu.TryLock() {
		return false
	}
	lockcheck.Acquired(h, m, lockcheck.RankWALFlush)
	return true
}

func (m *walManager) unlockFlush(h *lockcheck.Holder) {
	m.flushMu.Unlock()
	lockcheck.Release(h, m, lockcheck.RankWALFlush)
}

// FgNotLeaf acquires a tier latch, and then descriptor.mu, under a
// frame-group lock: fg.mu is a strict leaf, so both are reported.
func FgNotLeaf(h *lockcheck.Holder, d *descriptor, fg *fgroup) {
	fg.lock(h)
	d.lockD(h) // want latchorder
	d.unlockD(h)
	d.lockMu(h) // want latchorder
	d.unlockMu(h)
	fg.unlock(h)
}

// ShardShardNoFlush chains two WAL shard mutexes outside the flusher.
func ShardShardNoFlush(h *lockcheck.Holder, m *walManager, a, b *walShard) {
	m.lockShard(h, a)
	m.lockShard(h, b) // want latchorder
	m.unlockShard(h, b)
	m.unlockShard(h, a)
}

// FlushUnderShard inverts the WAL order (flushMu must come first).
func FlushUnderShard(h *lockcheck.Holder, m *walManager, sh *walShard) {
	m.lockShard(h, sh)
	m.lockFlush(h) // want latchorder
	m.unlockFlush(h)
	m.unlockShard(h, sh)
}

// FlushAdmitsOnlyShards takes a non-shard latch under flushMu.
func FlushAdmitsOnlyShards(h *lockcheck.Holder, m *walManager, d *descriptor) {
	m.lockFlush(h)
	d.lockD(h) // want latchorder
	d.unlockD(h)
	m.unlockFlush(h)
}

// bmPool stands in for internal/core's buffer pool: its free-list mutex is
// a strict leaf, and its shim passes the field, not the pool.
type bmPool struct{ freeMu sync.Mutex }

func (p *bmPool) lockFree(h *lockcheck.Holder) {
	lockcheck.Acquire(h, &p.freeMu, lockcheck.RankFreeList)
	p.freeMu.Lock()
}

func (p *bmPool) unlockFree(h *lockcheck.Holder) {
	p.freeMu.Unlock()
	lockcheck.Release(h, &p.freeMu, lockcheck.RankFreeList)
}

// LatchUnderFreeList acquires a tier latch under a pool's free-list mutex.
func LatchUnderFreeList(h *lockcheck.Holder, p *bmPool, d *descriptor) {
	p.lockFree(h)
	d.lockD(h) // want latchorder
	d.unlockD(h)
	p.unlockFree(h)
}

// CleanFreeList is the legal direction: the free-list mutex taken (and
// dropped) under tier latches.
func CleanFreeList(h *lockcheck.Holder, p *bmPool, d *descriptor) {
	d.lockD(h)
	d.lockN(h)
	p.lockFree(h)
	p.unlockFree(h)
	d.unlockN(h)
	d.unlockD(h)
}

// CleanExtended follows the extended discipline: fg.mu as a leaf under a
// tier latch, descriptor.mu taken after it is released, the shard mutex as
// an append-path leaf, shard → shard under the combining flusher's flushMu,
// and a TryLock skip-out on flushMu.
func CleanExtended(h *lockcheck.Holder, d *descriptor, fg *fgroup, m *walManager, a, b *walShard) {
	d.lockS(h)
	fg.lock(h)
	fg.unlock(h)
	d.lockMu(h)
	d.unlockMu(h)
	d.unlockS(h)

	m.lockShard(h, a)
	m.unlockShard(h, a)

	m.lockFlush(h)
	m.lockShard(h, a)
	m.lockShard(h, b)
	m.unlockShard(h, b)
	m.unlockShard(h, a)
	m.unlockFlush(h)

	if !m.tryLockFlush(h) {
		return
	}
	m.unlockFlush(h)
}

// server stands in for internal/server's: a transaction holds its gate
// shared, a checkpoint exclusive, and the gate is a root.
type server struct{ txnGate sync.RWMutex }

func (s *server) lockTxnsShared(h *lockcheck.Holder) {
	lockcheck.Acquire(h, &s.txnGate, lockcheck.RankTxnGate)
	s.txnGate.RLock()
}

func (s *server) unlockTxnsShared(h *lockcheck.Holder) {
	s.txnGate.RUnlock()
	lockcheck.Release(h, &s.txnGate, lockcheck.RankTxnGate)
}

func (s *server) lockTxnsExclusive(h *lockcheck.Holder) {
	lockcheck.Acquire(h, &s.txnGate, lockcheck.RankTxnGate)
	s.txnGate.Lock()
}

func (s *server) unlockTxnsExclusive(h *lockcheck.Holder) {
	s.txnGate.Unlock()
	lockcheck.Release(h, &s.txnGate, lockcheck.RankTxnGate)
}

// GateUnderLatch takes the transaction gate while holding a tier latch.
func GateUnderLatch(h *lockcheck.Holder, s *server, d *descriptor) {
	d.lockD(h)
	s.lockTxnsShared(h) // want latchorder
	s.unlockTxnsShared(h)
	d.unlockD(h)
}

// GateTwice nests the gate: a checkpoint waiting for the outer read lock
// would queue the inner one behind it forever.
func GateTwice(h *lockcheck.Holder, s *server) {
	s.lockTxnsShared(h)
	defer s.unlockTxnsShared(h)
	s.lockTxnsExclusive(h) // want latchorder
	s.unlockTxnsExclusive(h)
}

// CleanGate takes the gate first, then latches under it, and takes it again
// once it has been released.
func CleanGate(h *lockcheck.Holder, s *server, d *descriptor) {
	s.lockTxnsShared(h)
	d.lockD(h)
	d.unlockD(h)
	s.unlockTxnsShared(h)
	s.lockTxnsExclusive(h)
	s.unlockTxnsExclusive(h)
}
