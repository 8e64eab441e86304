// Package vclock provides per-worker virtual clocks measured in simulated
// nanoseconds.
//
// Spitfire's evaluation platform is a two-socket Optane machine; this
// reproduction runs on arbitrary hardware, so elapsed time is simulated
// rather than measured. Every worker goroutine owns a Clock. Devices and
// compute steps charge simulated nanoseconds to the clock of the worker that
// issued them; throughput is then operations per simulated second, which is
// deterministic and independent of the host's core count.
package vclock

import (
	"sync/atomic"
	"unsafe"

	"github.com/spitfire-db/spitfire/internal/lockcheck"
)

// Clock is a virtual clock owned by a single worker goroutine. It is not
// safe for concurrent use; each worker must have its own.
//
// A clock is written on every charge, and harnesses create their workers'
// clocks back to back: 16-byte clocks land side by side (and beside other
// small per-worker objects) on one cache line, which the workers then steal
// from each other on every operation. Padded to 64 bytes a clock is a
// pointer-free object of the allocator's 64-byte class, which places it on a
// line of its own (TestClockIsOneCacheLine).
//
// The clock also carries its worker's latch holder, which is zero-size
// unless built with -tags lockcheck; the padding shrinks by the holder's
// size, and neither is the final field, so the clock stays 64 bytes in both
// builds.
type Clock struct {
	now     int64 // simulated nanoseconds since the start of the run
	latches lockcheck.Holder
	_       [48 - unsafe.Sizeof(lockcheck.Holder{})]byte
	worker  int // creation sequence number, fixed for the clock's life
}

// workers numbers clocks in creation order.
var workers atomic.Uint64

// New returns a clock positioned at virtual time zero.
func New() *Clock { return At(0) }

// At returns a clock positioned at the given virtual time in nanoseconds.
func At(ns int64) *Clock {
	return &Clock{now: ns, worker: int((workers.Add(1) - 1) & (1<<31 - 1))}
}

// Worker returns the clock's creation index. Sharded and striped structures
// (WAL append shards, counter stripes) pin a worker to Worker() % n:
// clocks created back to back spread round-robin, a worker keeps its shard
// for life, and nothing has to remember the assignment — so short-lived
// clocks (a server's per-request contexts) leave no state behind.
func (c *Clock) Worker() int { return c.worker }

// Holder returns the worker's identity for the latch-order checker
// (internal/lockcheck): every latch a worker takes is recorded against the
// holder of the clock its work is charged to.
func (c *Clock) Holder() *lockcheck.Holder { return &c.latches }

// Now returns the current virtual time in nanoseconds.
func (c *Clock) Now() int64 { return c.now }

// Advance moves the clock forward by d nanoseconds. Negative d is ignored so
// that device queuing math can never move a worker backwards in time.
func (c *Clock) Advance(d int64) {
	if d > 0 {
		c.now += d
	}
}

// AdvanceTo moves the clock forward to time t if t is in the future.
// It returns the amount of time skipped (zero if t is in the past).
func (c *Clock) AdvanceTo(t int64) int64 {
	if t <= c.now {
		return 0
	}
	d := t - c.now
	c.now = t
	return d
}

// Seconds returns the current virtual time in seconds.
func (c *Clock) Seconds() float64 { return float64(c.now) / 1e9 }
