package core

import (
	"sync"
	"sync/atomic"
)

// miniSlots is the capacity of a mini page: up to sixteen loading units,
// exactly as in HyMem's layout (Figure 2b of the paper).
const miniSlots = 16

// miniArenaDivisor sets aside one eighth of DRAMBytes for mini frames when
// MiniPages is on.
const miniArenaDivisor = 8

// noSlot marks an absent unit in a mini page's slot directory.
const noSlot = -1

// fgState tracks which loading units of a cache-line-grained page are
// resident in DRAM and which are dirty (Figure 2a). It exists only for DRAM
// frames backed by an NVM copy; pages loaded whole (from SSD, or with
// fine-grained loading disabled) have no fgState.
//
// All fields except residentCount are guarded by mu. residentCount is
// atomic so the NVM evictor can cheaply test full residency without taking
// the lock (it skips NVM frames that a partially resident DRAM page still
// depends on).
type fgState struct {
	mu   sync.Mutex
	unit int // loading unit size in bytes

	// Full-frame mode: one bit per unit.
	resident []uint64
	dirty    []uint64

	// Mini-page mode: a slot directory of logical unit numbers.
	mini      bool
	slots     [miniSlots]int32 // logical unit index per slot, or -1
	slotCount int
	slotDirty uint16 // per-slot dirty bits

	residentCount atomic.Int32
}

func newFullFG(unit int) *fgState {
	n := PageSize / unit
	return &fgState{
		unit:     unit,
		resident: make([]uint64, (n+63)/64),
		dirty:    make([]uint64, (n+63)/64),
	}
}

func newMiniFG(unit int) *fgState {
	fg := &fgState{unit: unit, mini: true}
	for i := range fg.slots {
		fg.slots[i] = noSlot
	}
	return fg
}

// unitsPerPage returns the number of loading units in a page.
func (fg *fgState) unitsPerPage() int { return PageSize / fg.unit }

// fullyResident reports whether every unit of the page is in DRAM. Safe to
// call without fg.mu.
func (fg *fgState) fullyResident() bool {
	if fg.mini {
		return false // a mini page can hold at most 16 of the page's units
	}
	return int(fg.residentCount.Load()) == fg.unitsPerPage()
}

// isResident reports whether unit u is resident. Caller holds fg.mu.
func (fg *fgState) isResident(u int) bool {
	return fg.resident[u>>6]&(1<<uint(u&63)) != 0
}

// setResident marks unit u resident. Caller holds fg.mu.
func (fg *fgState) setResident(u int) {
	w := &fg.resident[u>>6]
	bit := uint64(1) << uint(u&63)
	if *w&bit == 0 {
		*w |= bit
		fg.residentCount.Add(1)
	}
}

// setDirty marks unit u dirty. Caller holds fg.mu.
func (fg *fgState) setDirty(u int) {
	fg.dirty[u>>6] |= 1 << uint(u&63)
}

// isDirty reports whether unit u is dirty. Caller holds fg.mu.
func (fg *fgState) isDirty(u int) bool {
	return fg.dirty[u>>6]&(1<<uint(u&63)) != 0
}

// clearDirty resets every dirty bit. Caller holds fg.mu.
func (fg *fgState) clearDirty() {
	for i := range fg.dirty {
		fg.dirty[i] = 0
	}
	fg.slotDirty = 0
}

// findSlot returns the slot holding logical unit u, or noSlot. Caller holds
// fg.mu. Mini pages direct accesses through this linear directory scan,
// mirroring HyMem's slots array.
func (fg *fgState) findSlot(u int) int {
	for s := 0; s < fg.slotCount; s++ {
		if fg.slots[s] == int32(u) {
			return s
		}
	}
	return noSlot
}

// unitRange converts a byte range to the [first, last] units it touches.
func unitRange(unit, off, n int) (first, last int) {
	first = off / unit
	last = (off + n - 1) / unit
	return first, last
}
