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

func (d *descriptor) lockD() {
	lockcheck.Acquire(d, lockcheck.RankD)
	d.latchD.Lock()
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

func (d *descriptor) lockS() {
	lockcheck.Acquire(d, lockcheck.RankS)
	d.latchS.Lock()
}

func (d *descriptor) unlockS() {
	d.latchS.Unlock()
	lockcheck.Release(d, lockcheck.RankS)
}

func (d *descriptor) lockMu() {
	lockcheck.Acquire(d, lockcheck.RankMu)
	d.mu.Lock()
}

func (d *descriptor) unlockMu() {
	d.mu.Unlock()
	lockcheck.Release(d, lockcheck.RankMu)
}

// Inverted acquires tier latches out of order.
func Inverted(d *descriptor) {
	d.lockS()
	d.lockN() // want latchorder
	d.unlockN()
	d.unlockS()
}

// TryInverted does the same inversion by TryLock, which does not excuse it.
func TryInverted(d *descriptor) {
	d.lockS()
	if !d.tryLockN() { // want latchorder
		return
	}
	d.unlockN()
	d.unlockS()
}

// UnderMu acquires a latch and performs device I/O under the leaf lock.
func UnderMu(d *descriptor, b []byte) {
	d.lockMu()
	d.lockD()                                    // want latchorder
	if err := device.WriteAt(0, b); err != nil { // want latchorder
		_ = err
	}
	d.unlockD()
	d.unlockMu()
}

// SecondBlocking takes a blocking tier latch on a second descriptor.
func SecondBlocking(a, b *descriptor) {
	a.lockD()
	b.lockD() // want latchorder
	b.unlockD()
	a.unlockD()
}

// Bypass locks a shim's mutex directly, where lockcheck cannot see it.
func Bypass(d *descriptor) {
	d.latchN.Lock() // want latchorder
	d.latchN.Unlock()
}

// Clean follows the discipline: tiers in order with skips, TryLock for the
// second descriptor, mu taken strictly as a leaf (nothing under it), and a
// blocking mu on a second descriptor (legal: mu is a leaf everywhere).
func Clean(a, b *descriptor, buf []byte) error {
	a.lockD()
	defer a.unlockD()
	if err := device.WriteAt(0, buf); err != nil { // I/O under tier latch is fine
		return err
	}
	a.lockS() // skipping latchN is fine
	a.unlockS()
	if b.tryLockN() {
		b.unlockN()
	}
	a.lockMu()
	a.unlockMu()
	b.lockMu()
	b.unlockMu()
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
func Publish(d *descriptor, meta []frameMeta, f int32) {
	d.lockD()
	defer d.unlockD()
	meta[f].pid.Store(d.pid)
	d.lockMu()
	d.frame.Store(f)
	d.unlockMu()
	meta[f].pins.Store(0)
}

// fgroup stands in for internal/core's frame group.
type fgroup struct{ mu sync.Mutex }

func (fg *fgroup) lock() {
	lockcheck.Acquire(fg, lockcheck.RankFg)
	fg.mu.Lock()
}

func (fg *fgroup) unlock() {
	fg.mu.Unlock()
	lockcheck.Release(fg, lockcheck.RankFg)
}

// walShard and walManager stand in for internal/wal's: the shard shims take
// the shard as an argument, so the argument names the latch.
type walShard struct{ mu sync.Mutex }

type walManager struct{ flushMu sync.Mutex }

func (m *walManager) lockShard(sh *walShard) {
	lockcheck.Acquire(sh, lockcheck.RankWALShard)
	sh.mu.Lock()
}

func (m *walManager) unlockShard(sh *walShard) {
	sh.mu.Unlock()
	lockcheck.Release(sh, lockcheck.RankWALShard)
}

func (m *walManager) lockFlush() {
	lockcheck.Acquire(m, lockcheck.RankWALFlush)
	m.flushMu.Lock()
}

func (m *walManager) tryLockFlush() bool {
	if !m.flushMu.TryLock() {
		return false
	}
	lockcheck.Acquired(m, lockcheck.RankWALFlush)
	return true
}

func (m *walManager) unlockFlush() {
	m.flushMu.Unlock()
	lockcheck.Release(m, lockcheck.RankWALFlush)
}

// FgNotLeaf acquires a tier latch, and then descriptor.mu, under a
// frame-group lock: fg.mu is a strict leaf, so both are reported.
func FgNotLeaf(d *descriptor, fg *fgroup) {
	fg.lock()
	d.lockD() // want latchorder
	d.unlockD()
	d.lockMu() // want latchorder
	d.unlockMu()
	fg.unlock()
}

// ShardShardNoFlush chains two WAL shard mutexes outside the flusher.
func ShardShardNoFlush(m *walManager, a, b *walShard) {
	m.lockShard(a)
	m.lockShard(b) // want latchorder
	m.unlockShard(b)
	m.unlockShard(a)
}

// FlushUnderShard inverts the WAL order (flushMu must come first).
func FlushUnderShard(m *walManager, sh *walShard) {
	m.lockShard(sh)
	m.lockFlush() // want latchorder
	m.unlockFlush()
	m.unlockShard(sh)
}

// FlushAdmitsOnlyShards takes a non-shard latch under flushMu.
func FlushAdmitsOnlyShards(m *walManager, d *descriptor) {
	m.lockFlush()
	d.lockD() // want latchorder
	d.unlockD()
	m.unlockFlush()
}

// bmPool stands in for internal/core's buffer pool: its free-list mutex is
// a strict leaf, and its shim passes the field, not the pool.
type bmPool struct{ freeMu sync.Mutex }

func (p *bmPool) lockFree() {
	lockcheck.Acquire(&p.freeMu, lockcheck.RankFreeList)
	p.freeMu.Lock()
}

func (p *bmPool) unlockFree() {
	p.freeMu.Unlock()
	lockcheck.Release(&p.freeMu, lockcheck.RankFreeList)
}

// LatchUnderFreeList acquires a tier latch under a pool's free-list mutex.
func LatchUnderFreeList(p *bmPool, d *descriptor) {
	p.lockFree()
	d.lockD() // want latchorder
	d.unlockD()
	p.unlockFree()
}

// CleanFreeList is the legal direction: the free-list mutex taken (and
// dropped) under tier latches.
func CleanFreeList(p *bmPool, d *descriptor) {
	d.lockD()
	d.lockN()
	p.lockFree()
	p.unlockFree()
	d.unlockN()
	d.unlockD()
}

// CleanExtended follows the extended discipline: fg.mu as a leaf under a
// tier latch, descriptor.mu taken after it is released, the shard mutex as
// an append-path leaf, shard → shard under the combining flusher's flushMu,
// and a TryLock skip-out on flushMu.
func CleanExtended(d *descriptor, fg *fgroup, m *walManager, a, b *walShard) {
	d.lockS()
	fg.lock()
	fg.unlock()
	d.lockMu()
	d.unlockMu()
	d.unlockS()

	m.lockShard(a)
	m.unlockShard(a)

	m.lockFlush()
	m.lockShard(a)
	m.lockShard(b)
	m.unlockShard(b)
	m.unlockShard(a)
	m.unlockFlush()

	if !m.tryLockFlush() {
		return
	}
	m.unlockFlush()
}

// server stands in for internal/server's: a transaction holds its gate
// shared, a checkpoint exclusive, and the gate is a root.
type server struct{ txnGate sync.RWMutex }

func (s *server) lockTxnsShared() {
	lockcheck.Acquire(&s.txnGate, lockcheck.RankTxnGate)
	s.txnGate.RLock()
}

func (s *server) unlockTxnsShared() {
	s.txnGate.RUnlock()
	lockcheck.Release(&s.txnGate, lockcheck.RankTxnGate)
}

func (s *server) lockTxnsExclusive() {
	lockcheck.Acquire(&s.txnGate, lockcheck.RankTxnGate)
	s.txnGate.Lock()
}

func (s *server) unlockTxnsExclusive() {
	s.txnGate.Unlock()
	lockcheck.Release(&s.txnGate, lockcheck.RankTxnGate)
}

// GateUnderLatch takes the transaction gate while holding a tier latch.
func GateUnderLatch(s *server, d *descriptor) {
	d.lockD()
	s.lockTxnsShared() // want latchorder
	s.unlockTxnsShared()
	d.unlockD()
}

// GateTwice nests the gate: a checkpoint waiting for the outer read lock
// would queue the inner one behind it forever.
func GateTwice(s *server) {
	s.lockTxnsShared()
	defer s.unlockTxnsShared()
	s.lockTxnsExclusive() // want latchorder
	s.unlockTxnsExclusive()
}

// CleanGate takes the gate first, then latches under it, and takes it again
// once it has been released.
func CleanGate(s *server, d *descriptor) {
	s.lockTxnsShared()
	d.lockD()
	d.unlockD()
	s.unlockTxnsShared()
	s.lockTxnsExclusive()
	s.unlockTxnsExclusive()
}
