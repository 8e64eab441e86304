package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// noFrame marks an empty frame slot in a descriptor.
const noFrame = int32(-1)

// frameSlot names a page's frame in one pool, or noFrame. It stores the
// index plus one, so a zero descriptor has no copy in any tier.
type frameSlot struct{ v atomic.Int32 }

func (s *frameSlot) Load() int32   { return s.v.Load() - 1 }
func (s *frameSlot) Store(f int32) { s.v.Store(f + 1) }

// descriptor is the shared page descriptor of §5.1 (Figure 4): one exists
// per page id, inline in the manager's directory (BufferManager.table), and
// it never moves. It records where copies of the page live and carries one
// latch per storage tier for thread-safe migration. A descriptor is 64
// bytes, one cache line of its block: migrations write its latches, and a
// neighbour's hits must not share that line.
//
// Its latches and mu are taken only through the shims in latches.go, in
// the order lockcheck.Violation states. The frame slots are written under
// mu and read atomically. load takes mu for a consistent snapshot of all
// three; a reader that did not take mu must pin the frame it read and
// validate that frame's pid before trusting it (fetchPage's hit protocol,
// DESIGN.md §5).
type descriptor struct {
	pid   PageID
	named sync.Once // sets pid at the first descriptorFor

	// latchD/latchN/latchS guard migrations into/out of the DRAM, NVM and
	// SSD copies of this page, respectively.
	latchD, latchN, latchS sync.Mutex

	mu        sync.Mutex
	dramFrame frameSlot // full DRAM frame index, or noFrame
	dramMini  frameSlot // mini DRAM frame index, or noFrame
	nvmFrame  frameSlot // NVM frame index, or noFrame
}

// location is a snapshot of the descriptor's frame slots.
type location struct {
	dramFrame, dramMini, nvmFrame int32
}

// load snapshots the frame slots under mu, so the three agree with each other
// (slot writers hold mu across a multi-slot change such as a mini promotion).
func (d *descriptor) load() location {
	d.lockMu()
	l := location{d.dramFrame.Load(), d.dramMini.Load(), d.nvmFrame.Load()}
	d.unlockMu()
	return l
}

// descriptorFor returns pid's shared descriptor: three atomic loads, no
// hash. Its first caller names the descriptor; later ones write nothing.
func (bm *BufferManager) descriptorFor(pid PageID) *descriptor {
	d := bm.table.Get(pid)
	d.named.Do(func() { d.pid = pid })
	return d
}

// waitBudget bounds the spin-waits used when draining pins off a frame
// before migrating or overwriting it, and a checkpoint's retries of a page
// whose down-tier latch is busy. On exhaustion the caller falls back to a
// non-blocking plan (skip the victim, or serve the access in place) or, in a
// checkpoint, fails, which keeps the manager deadlock-free even if a caller
// violates the single-pin discipline.
const waitBudget = 1 << 14

// backoff yields the processor inside spin loops.
func backoff(i int) {
	if i%64 == 63 {
		runtime.Gosched()
	}
}
