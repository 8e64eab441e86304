package mvto

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// SlotBits is the width of a RID's slot field: a RID is
// pageID<<SlotBits | slot. The engine packs its RIDs this way, and the
// directory that holds each tuple's entry is laid out by it.
const SlotBits = 12

// The directory gives every tuple's entry a fixed place found from its RID
// alone: the root names the chunk of the RID's page, the chunk names the
// page's blocks, and a block holds 64 slots' entries. Each level is
// allocated at its first touch — 8 KiB per chunk of 1 024 pages, 512 B per
// page, 2 KiB per block, all exact size classes — so the first touch of a
// RID allocates at most 10.5 KiB, whatever its value. The root spans page
// ids below densePages (2^22 pages, 64 GiB of 16 KiB pages). That is the
// manager's contract with its caller: the engine draws page ids densely
// from zero, and a RID on a page past the span panics.
const (
	blockBits  = 6  // a block holds 1<<blockBits slots' entries
	chunkBits  = 10 // a chunk spans 1<<chunkBits pages
	rootBits   = 12 // the root spans 1<<rootBits chunks
	densePages = 1 << (rootBits + chunkBits)
)

type (
	metaBlock [1 << blockBits]tupleMeta
	metaPage  [1 << (SlotBits - blockBits)]atomic.Pointer[metaBlock]
	metaChunk [1 << chunkBits]atomic.Pointer[metaPage]
)

// directory maps RIDs to their tupleMeta. An entry never moves, so a
// *tupleMeta stays valid for the manager's lifetime.
type directory struct {
	root [1 << rootBits]atomic.Pointer[metaChunk]
	mu   sync.Mutex // serialises first touches
}

// get returns rid's entry. Once rid's block exists it takes no lock: three
// atomic loads find the entry.
func (d *directory) get(rid uint64) *tupleMeta {
	pid, slot := rid>>SlotBits, rid&(1<<SlotBits-1)
	if pid >= densePages {
		panic(fmt.Sprintf("mvto: RID %#x is on page %d, past the directory's %d pages; page ids must be dense from zero", rid, pid, densePages))
	}
	cp := &d.root[pid>>chunkBits]
	c := cp.Load()
	if c == nil {
		c = publish(&d.mu, cp)
	}
	pp := &c[pid&(1<<chunkBits-1)]
	p := pp.Load()
	if p == nil {
		p = publish(&d.mu, pp)
	}
	bp := &p[slot>>blockBits]
	b := bp.Load()
	if b == nil {
		b = publish(&d.mu, bp)
	}
	return &b[slot&(1<<blockBits-1)]
}

// publish is a level's first touch: it stores a zero T in *p unless one is
// there. It looks at *p again under mu, so racing first touches all return
// the one T that was stored.
func publish[T any](mu *sync.Mutex, p *atomic.Pointer[T]) *T {
	mu.Lock()
	defer mu.Unlock()
	v := p.Load()
	if v == nil {
		v = new(T)
		p.Store(v)
	}
	return v
}
