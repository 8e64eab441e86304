// Package latch is a vet fixture: a descriptor-shaped struct exercised
// against each rule of the latch discipline.
package latch

import (
	"sync"
	"sync/atomic"

	"fix/devio"
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

// Shims mirroring internal/core's lockcheck routing.
func (d *descriptor) lockS() { d.latchS.Lock() }

func (d *descriptor) unlockS() { d.latchS.Unlock() }

func (d *descriptor) tryLockN() bool { return d.latchN.TryLock() }

// Inverted acquires tier latches out of order.
func Inverted(d *descriptor) {
	d.latchS.Lock()
	d.latchN.Lock() // want latchorder
	d.latchN.Unlock()
	d.latchS.Unlock()
}

// ShimInverted does the same inversion through the shim methods.
func ShimInverted(d *descriptor) {
	d.lockS()
	if !d.tryLockN() { // want latchorder
		return
	}
	d.latchN.Unlock()
	d.unlockS()
}

// UnderMu acquires a latch and performs device I/O under the leaf lock.
func UnderMu(d *descriptor, b []byte) {
	d.mu.Lock()
	d.latchD.Lock()                             // want latchorder
	if err := devio.WriteAt(0, b); err != nil { // want latchorder
		_ = err
	}
	d.latchD.Unlock()
	d.mu.Unlock()
}

// SecondBlocking takes a blocking tier latch on a second descriptor.
func SecondBlocking(a, b *descriptor) {
	a.latchD.Lock()
	b.latchD.Lock() // want latchorder
	b.latchD.Unlock()
	a.latchD.Unlock()
}

// Clean follows the discipline: tiers in order with skips, TryLock for the
// second descriptor, mu taken strictly as a leaf (nothing under it), and a
// blocking mu on a second descriptor (legal: mu is a leaf everywhere).
func Clean(a, b *descriptor, buf []byte) error {
	a.latchD.Lock()
	defer a.latchD.Unlock()
	if err := devio.WriteAt(0, buf); err != nil { // I/O under tier latch is fine
		return err
	}
	a.latchS.Lock() // skipping latchN is fine
	a.latchS.Unlock()
	if b.latchN.TryLock() {
		b.latchN.Unlock()
	}
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
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
	d.latchD.Lock()
	defer d.latchD.Unlock()
	meta[f].pid.Store(d.pid)
	d.mu.Lock()
	d.frame.Store(f)
	d.mu.Unlock()
	meta[f].pins.Store(0)
}

// fgroup mirrors internal/core's fgState shape: mu plus residency/dirty
// bitmaps. Its bare lock/unlock methods are the frame-group shims.
type fgroup struct {
	mu       sync.Mutex
	resident []uint64
	dirty    []uint64
}

func (fg *fgroup) lock() { fg.mu.Lock() }

func (fg *fgroup) unlock() { fg.mu.Unlock() }

// walShard mirrors internal/wal's shard shape (mu + bufOff cursor).
type walShard struct {
	mu     sync.Mutex
	bufOff int64
}

// walManager mirrors internal/wal's Manager shape (flushMu + shards).
type walManager struct {
	flushMu sync.Mutex
	shards  []*walShard
}

func (m *walManager) lockShard(sh *walShard) { sh.mu.Lock() }

func (m *walManager) unlockShard(sh *walShard) { sh.mu.Unlock() }

func (m *walManager) lockFlush() { m.flushMu.Lock() }

func (m *walManager) tryLockFlush() bool { return m.flushMu.TryLock() }

func (m *walManager) unlockFlush() { m.flushMu.Unlock() }

// FgNotLeaf acquires a tier latch under a frame-group lock.
func FgNotLeaf(d *descriptor, fg *fgroup) {
	fg.lock()
	d.latchD.Lock() // want latchorder
	d.latchD.Unlock()
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
	d.latchD.Lock() // want latchorder
	d.latchD.Unlock()
	m.unlockFlush()
}

// bmShard mirrors internal/core's poolShard shape (mu + freeN free-list
// depth): its mutex is the buffer-pool shard leaf.
type bmShard struct {
	mu    sync.Mutex
	freeN int32
}

// bmPool mirrors internal/core's basePool shape (shards + freeLen).
type bmPool struct {
	shards  []*bmShard
	freeLen int64
}

func (p *bmPool) lockShard(sh *bmShard) { sh.mu.Lock() }

func (p *bmPool) unlockShard(sh *bmShard) { sh.mu.Unlock() }

// PoolShardUnderShard holds two pool shard mutexes at once; work-stealing
// must drop the dry shard before probing the next.
func PoolShardUnderShard(p *bmPool, a, b *bmShard) {
	p.lockShard(a)
	p.lockShard(b) // want latchorder
	p.unlockShard(b)
	p.unlockShard(a)
}

// LatchUnderPoolShard acquires a tier latch under a pool shard mutex (raw
// field form; pool shards are strict leaves).
func LatchUnderPoolShard(sh *bmShard, d *descriptor) {
	sh.mu.Lock()
	d.latchD.Lock() // want latchorder
	d.latchD.Unlock()
	sh.mu.Unlock()
}

// CleanSharded is the legal direction: shard mutexes taken (and dropped)
// under tier latches, one at a time, stealing by releasing the dry shard
// before probing its neighbor.
func CleanSharded(p *bmPool, a, b *bmShard, d *descriptor) {
	d.latchD.Lock()
	d.latchN.Lock()
	p.lockShard(a)
	p.unlockShard(a)
	p.lockShard(b)
	p.unlockShard(b)
	d.latchN.Unlock()
	d.latchD.Unlock()
}

// CleanExtended follows the extended discipline: fg.mu under a tier latch
// with only descriptor.mu beneath it, the shard mutex as an append-path
// leaf, the combining flusher's flushMu → shard order (shim and raw forms),
// and a TryLock skip-out on flushMu.
func CleanExtended(d *descriptor, fg *fgroup, m *walManager, a, b *walShard) {
	d.latchS.Lock()
	fg.lock()
	d.mu.Lock() // the one legal acquisition under fg.mu
	d.mu.Unlock()
	fg.unlock()
	d.latchS.Unlock()

	m.lockShard(a)
	m.unlockShard(a)

	m.lockFlush()
	m.lockShard(a)
	m.unlockShard(a)
	m.lockShard(b)
	m.unlockShard(b)
	m.unlockFlush()

	if !m.tryLockFlush() {
		return
	}
	m.flushMu.Unlock()
}
