package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// noFrame marks an empty frame slot in a descriptor.
const noFrame = int32(-1)

// descriptor is the shared page descriptor of §5.1 (Figure 4): one exists
// per logical page known to the mapping table. It records where copies of
// the page live and carries one latch per storage tier for thread-safe
// migration.
//
// Its latches and mu are taken only through the shims in latches.go, in
// the order lockcheck.Violation states. The frame slots are written under
// mu and read atomically. load takes mu for a consistent snapshot of all
// three; a reader that did not take mu must pin the frame it read and
// validate that frame's pid before trusting it (fetchPage's hit protocol,
// DESIGN.md §5).
type descriptor struct {
	pid PageID

	// latchD/latchN/latchS guard migrations into/out of the DRAM, NVM and
	// SSD copies of this page, respectively.
	latchD, latchN, latchS sync.Mutex

	mu        sync.Mutex
	dramFrame atomic.Int32 // full DRAM frame index, or noFrame
	dramMini  atomic.Int32 // mini DRAM frame index, or noFrame
	nvmFrame  atomic.Int32 // NVM frame index, or noFrame
}

func newDescriptor(pid PageID) *descriptor {
	d := &descriptor{pid: pid}
	d.dramFrame.Store(noFrame)
	d.dramMini.Store(noFrame)
	d.nvmFrame.Store(noFrame)
	return d
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

// descriptorFor returns (creating if needed) the shared descriptor of pid.
func (bm *BufferManager) descriptorFor(pid PageID) *descriptor {
	d, _ := bm.table.GetOrInsert(pid, func() *descriptor { return newDescriptor(pid) })
	return d
}

// waitBudget bounds the spin-waits used when draining pins off a frame
// before migrating or overwriting it. On exhaustion the caller falls back
// to a non-blocking plan (skip the victim, or serve the access in place),
// which keeps the manager deadlock-free even if a caller violates the
// single-pin discipline.
const waitBudget = 1 << 14

// backoff yields the processor inside spin loops.
func backoff(i int) {
	if i%64 == 63 {
		runtime.Gosched()
	}
}
