//go:build lockcheck

// Package lockcheck is a build-tag-gated runtime checker for the descriptor
// latch discipline (DESIGN.md §6d). Compiled with -tags lockcheck,
// every latch acquisition routed through internal/core's shims is recorded
// in a per-goroutine shadow stack; an acquisition that violates the
// discipline panics immediately with both the current stack and the stack
// recorded when the conflicting latch was taken — turning a
// would-be-deadlock (observable only as a hung test) into a deterministic
// failure with two readable stacks. Without the tag the package is the
// empty stub in stub.go and the shims cost one inlined empty call.
//
// The rules are Violation's, in ranks.go, which internal/vet's latchorder
// analyzer applies to the same ranks statically.
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

// held is one latch on a goroutine's shadow stack, with the stack that
// took it.
type held struct {
	Held
	pcs [16]uintptr
	npc int
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
		if stack[i].Obj == obj && stack[i].Rank == rank {
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
	view := make([]Held, len(stack))
	for i := range stack {
		view[i] = stack[i].Held
	}
	if i, msg := Violation(view, obj, rank, blocking); msg != "" {
		fail(&stack[i], "lockcheck: "+msg)
	}
	if blocking {
		noteWait(obj, rank, g, stack)
	}
	noteAcquired(obj, g)
	e := held{Held: Held{Obj: obj, Rank: rank}}
	e.npc = runtime.Callers(3, e.pcs[:])
	s.byGoro[g] = append(stack, e)
}

// fail panics with the violation message, the stack of the conflicting
// earlier acquisition, and (via the panic itself) the current stack.
func fail(h *held, msg string) {
	var b bytes.Buffer
	b.WriteString(msg)
	b.WriteString("\n\nearlier acquisition of ")
	b.WriteString(RankName(h.Rank))
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
