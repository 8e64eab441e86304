//go:build lockcheck

// Package lockcheck is a build-tag-gated runtime checker for the descriptor
// latch discipline (DESIGN.md §6d). Compiled with -tags lockcheck, every
// latch acquisition routed through a shim is recorded in its Holder's
// shadow stack; an acquisition that violates the discipline panics
// immediately with both the current stack and the stack recorded when the
// conflicting latch was taken — turning a would-be-deadlock (observable only
// as a hung test) into a deterministic failure with two readable stacks.
// Without the tag the package is the empty stub in stub.go and the shims
// cost one inlined empty call.
//
// The rules are Violation's, in ranks.go, which internal/vet's latchorder
// analyzer applies to the same ranks statically.
package lockcheck

import (
	"fmt"
	"runtime"
	"strings"
)

// Enabled reports whether the checker is compiled in.
const Enabled = true

// Holder is the identity the checker orders acquisitions by: one worker's
// latches, in acquisition order, with the stack that took each. A worker's
// holder lives in its virtual clock (vclock.Clock.Holder), which every
// buffer-manager, WAL and server call on the worker's behalf already
// carries. Like the clock, a holder is used by one goroutine at a time, so
// recording an acquisition takes no lock and parses no stack. The zero value
// holds nothing.
type Holder struct {
	held []Held
	at   []callers // at[i] took held[i]
}

// callers is the stack that took a latch, from the shim down.
type callers struct {
	pcs [16]uintptr
	n   int
}

// Acquire records h's imminent *blocking* Lock of (obj, rank), panicking if
// the acquisition violates the discipline. Call immediately before
// mutex.Lock so the panic fires instead of the deadlock.
func Acquire(h *Holder, obj any, rank int) { h.acquire(obj, rank, true) }

// Acquired records h's successful TryLock of (obj, rank). Cross-descriptor
// TryLocks are legal; same-descriptor order violations and anything-under-mu
// still panic.
func Acquired(h *Holder, obj any, rank int) { h.acquire(obj, rank, false) }

// Release pops (obj, rank) from h's shadow stack. Releasing a latch h never
// recorded is ignored: a latch may legitimately be unlocked by another
// holder than the one that locked it (mutex handoff), and the checker only
// reasons about each holder's own ordering.
func Release(h *Holder, obj any, rank int) {
	for i := len(h.held) - 1; i >= 0; i-- {
		if h.held[i].Obj == obj && h.held[i].Rank == rank {
			h.held = append(h.held[:i], h.held[i+1:]...)
			h.at = append(h.at[:i], h.at[i+1:]...)
			noteReleased(h, obj)
			return
		}
	}
}

func (h *Holder) acquire(obj any, rank int, blocking bool) {
	if i, msg := Violation(h.held, obj, rank, blocking); msg != "" {
		fail(h.held[i].Rank, &h.at[i], "lockcheck: "+msg)
	}
	if blocking {
		noteWait(h, obj, rank)
	}
	noteAcquired(h, obj)
	h.held = append(h.held, Held{Obj: obj, Rank: rank})
	h.at = append(h.at, callers{})
	c := &h.at[len(h.at)-1]
	c.n = runtime.Callers(3, c.pcs[:]) // from the shim that called Acquire
}

// fail panics with the violation message, the stack of the conflicting
// earlier acquisition, and (via the panic itself) the current stack.
func fail(rank int, c *callers, msg string) {
	var b strings.Builder
	b.WriteString(msg)
	b.WriteString("\n\nearlier acquisition of ")
	b.WriteString(RankName(rank))
	b.WriteString(" at:\n")
	frames := runtime.CallersFrames(c.pcs[:c.n])
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
