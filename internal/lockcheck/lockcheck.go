//go:build lockcheck

// Package lockcheck is a build-tag-gated runtime checker for the descriptor
// latch discipline (DESIGN.md §5-quinquies). Compiled with -tags lockcheck,
// every latch acquisition routed through internal/core's shims is recorded
// in a per-goroutine shadow stack; an acquisition that violates the
// discipline panics immediately with both the current stack and the stack
// recorded when the conflicting latch was taken — turning a
// would-be-deadlock (observable only as a hung test) into a deterministic
// failure with two readable stacks. Without the tag the package is the
// empty stub in stub.go and the shims cost one inlined empty call.
//
// The rules enforced mirror the static latchorder analyzer in internal/vet:
//
//  1. Tier latches of one descriptor in rank order RankD < RankN < RankS;
//     skipping ranks is fine, acquiring a rank ≤ one already held on the
//     same descriptor is not.
//  2. RankMu is a leaf: nothing may be acquired while any mu is held. (mu
//     orders the writers of a descriptor's frame slots; readers load the
//     slots atomically and take no latch, so a hit never shows up here.)
//  3. Blocking acquisition (Acquire) of a tier latch is illegal while a
//     tier latch of a different descriptor is held; TryLock acquisitions
//     (Acquired) of second descriptors are the sanctioned escape hatch.
//  4. RankFg (a frame group's fg.mu) is a strict leaf: it may be taken
//     under tier latches, but nothing may be acquired while it is held.
//  5. RankWALShard (a WAL shard's append mutex) is a leaf on the append
//     path. The one exception is the combining flusher, which drains every
//     shard while holding RankWALFlush: shard→shard acquisitions are legal
//     only under flushMu (where the flusher takes them in index order).
//  6. Under RankWALFlush only RankWALShard may be acquired.
//  7. RankFreeList (a buffer pool's free-list mutex) is a strict leaf: it
//     may be taken under tier latches (allocation runs under latchD or
//     latchN) but nothing may be acquired while it is held.
//  8. RankTxnGate (the server's transaction gate, an RWMutex a transaction
//     holds shared and a checkpoint exclusive) is a root: it may be taken
//     only while nothing is held — in particular not a second time, since
//     a nested read lock queues behind a waiting checkpoint that waits for
//     the outer one.
package lockcheck

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
)

// Enabled reports whether the checker is compiled in.
const Enabled = true

// held is one latch on a goroutine's shadow stack.
type held struct {
	obj  any
	rank int
	pcs  [16]uintptr
	npc  int
}

// Shadow stacks are sharded by goroutine id: tracking must not serialize
// the very latch acquisitions it watches, or slow debug builds distort the
// interleavings they are meant to check.
type shard struct {
	mu     sync.Mutex
	byGoro map[uint64][]held
}

var shards [64]shard

func shardFor(g uint64) *shard {
	s := &shards[g%uint64(len(shards))]
	s.mu.Lock()
	if s.byGoro == nil {
		s.byGoro = map[uint64][]held{}
	}
	return s
}

// gid parses the current goroutine id from the first line of its stack
// ("goroutine 123 [running]:"). Slow, which is fine: lockcheck is a
// debugging build, not a production one.
func gid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	fields := bytes.Fields(buf[:n])
	if len(fields) < 2 {
		return 0
	}
	id, _ := strconv.ParseUint(string(fields[1]), 10, 64)
	return id
}

// Acquire records an imminent *blocking* Lock of (obj, rank), panicking if
// the acquisition violates the discipline. Call immediately before
// mutex.Lock so the panic fires instead of the deadlock.
func Acquire(obj any, rank int) { check(obj, rank, true) }

// Acquired records a successful TryLock of (obj, rank). Cross-descriptor
// TryLocks are legal; same-descriptor order violations and
// anything-under-mu still panic.
func Acquired(obj any, rank int) { check(obj, rank, false) }

// Release pops (obj, rank) from the goroutine's shadow stack. Releasing a
// latch that was never recorded is ignored: a latch may legitimately be
// unlocked on a different goroutine than locked it (mutex handoff), and the
// checker only reasons about per-goroutine ordering.
func Release(obj any, rank int) {
	g := gid()
	s := shardFor(g)
	defer s.mu.Unlock()
	stack := s.byGoro[g]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].obj == obj && stack[i].rank == rank {
			stack = append(stack[:i], stack[i+1:]...)
			noteReleased(obj, g)
			break
		}
	}
	if len(stack) == 0 {
		delete(s.byGoro, g)
	} else {
		s.byGoro[g] = stack
	}
}

func check(obj any, rank int, blocking bool) {
	g := gid()
	s := shardFor(g)
	defer s.mu.Unlock()
	stack := s.byGoro[g]
	if rank == RankTxnGate && len(stack) > 0 {
		h := &stack[len(stack)-1]
		fail(h, "lockcheck: acquiring %s(%p) while %s(%p) is held — the transaction gate is a root, taken before anything else",
			RankName(rank), obj, RankName(h.rank), h.obj)
	}
	flushHeld := false
	for i := range stack {
		if stack[i].rank == RankWALFlush {
			flushHeld = true
		}
	}
	for i := range stack {
		h := &stack[i]
		switch {
		case h.rank == RankMu:
			fail(h, "lockcheck: acquiring %s(%p) while mu(%p) is held — mu is a leaf lock, acquire nothing under it",
				RankName(rank), obj, h.obj)
		case h.rank == RankFreeList:
			fail(h, "lockcheck: acquiring %s(%p) while pool.freeMu(%p) is held — a pool's free-list mutex is a strict leaf",
				RankName(rank), obj, h.obj)
		case h.rank == RankFg:
			fail(h, "lockcheck: acquiring %s(%p) while fg.mu(%p) is held — a frame-group lock is a strict leaf",
				RankName(rank), obj, h.obj)
		case h.rank == RankWALShard && rank == RankWALShard && flushHeld:
			// The combining flusher drains every shard in index order while
			// holding flushMu; shard→shard is legal only in that context.
		case h.rank == RankWALShard:
			fail(h, "lockcheck: acquiring %s(%p) while wal.shard(%p) is held — a shard mutex is a leaf on the append path",
				RankName(rank), obj, h.obj)
		case h.rank == RankWALFlush && rank != RankWALShard:
			fail(h, "lockcheck: acquiring %s(%p) while wal.flushMu(%p) is held — only shard mutexes may be taken under flushMu",
				RankName(rank), obj, h.obj)
		case h.rank == RankWALFlush:
			// Shard mutex under flushMu: the combining flusher's order.
		case h.obj == obj && rank == RankMu:
			// mu under the same descriptor's tier latches: legal leaf use.
		case h.obj == obj && h.rank >= rank:
			fail(h, "lockcheck: acquiring %s(%p) while holding %s of the same descriptor — tier order is latchD → latchN → latchS",
				RankName(rank), obj, RankName(h.rank))
		case h.obj != obj && blocking && rank <= RankS && h.rank <= RankS:
			fail(h, "lockcheck: blocking Lock of %s(%p) while holding %s(%p) of another descriptor — second descriptors only via TryLock",
				RankName(rank), obj, RankName(h.rank), h.obj)
		}
	}
	if blocking {
		noteWait(obj, rank, g, stack)
	}
	noteAcquired(obj, g)
	e := held{obj: obj, rank: rank}
	e.npc = runtime.Callers(3, e.pcs[:])
	s.byGoro[g] = append(stack, e)
}

// fail panics with the violation message, the stack of the conflicting
// earlier acquisition, and (via the panic itself) the current stack.
func fail(h *held, format string, args ...any) {
	var b bytes.Buffer
	fmt.Fprintf(&b, format, args...)
	b.WriteString("\n\nearlier acquisition of ")
	b.WriteString(RankName(h.rank))
	b.WriteString(" at:\n")
	frames := runtime.CallersFrames(h.pcs[:h.npc])
	for {
		f, more := frames.Next()
		fmt.Fprintf(&b, "  %s\n      %s:%d\n", f.Function, f.File, f.Line)
		if !more {
			break
		}
	}
	b.WriteString("\ncurrent acquisition stack follows in the panic trace.")
	panic(b.String())
}
