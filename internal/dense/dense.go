// Package dense maps ids drawn densely from zero to fixed entries, with no
// hashing: the id itself says where its entry lives. The buffer manager
// keys its page descriptors this way by page id, the in-memory SSD store its
// pages, and the version store its tuples' entries by RID.
//
// A Directory has four levels, indexed by the id's bits from the top: the
// root names a chunk (12 bits), a chunk names a leaf (10 bits), a leaf names
// a block (6 bits) and a block holds 64 entries (6 bits). Each level is
// allocated at its first touch — 8 KiB per chunk, 512 B per leaf and 64
// entries per block — so the first touch of an id allocates one block, one
// leaf and one chunk at most, whatever its value. The root spans ids below
// Span (2^34); an id past it breaks the dense-id contract and panics.
package dense

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Bits per level, from the bottom. LeafBits is a leaf's span in ids: the
// version store packs a page's 4 096 slots under one leaf.
const (
	BlockBits = 6                     // a block holds 1<<BlockBits entries
	LeafBits  = BlockBits + 6         // a leaf spans 1<<LeafBits ids
	ChunkBits = LeafBits + 10         // a chunk spans 1<<ChunkBits ids
	Span      = 1 << (ChunkBits + 12) // the root spans ids below Span
)

type (
	// Block is the run of entries a first touch allocates.
	Block[T any] [1 << BlockBits]T
	// Leaf and Chunk are the inner levels, 512 B and 8 KiB whatever T is.
	Leaf[T any]  [1 << (LeafBits - BlockBits)]atomic.Pointer[Block[T]]
	Chunk[T any] [1 << (ChunkBits - LeafBits)]atomic.Pointer[Leaf[T]]
)

// Directory maps ids to entries of type T. An entry never moves, so a *T
// stays valid for the directory's lifetime; an entry nobody has touched
// reads as T's zero value. The zero Directory is empty and ready to use;
// its root is 32 KiB of pointers, so it suits a long-lived owner.
type Directory[T any] struct {
	root [Span >> ChunkBits]atomic.Pointer[Chunk[T]]
	mu   sync.Mutex // serialises first touches
}

// Get returns id's entry. Once id's block exists it takes no lock: three
// atomic loads find the entry.
func (d *Directory[T]) Get(id uint64) *T {
	if id >= Span {
		panic(fmt.Sprintf("dense: id %#x is past the directory's span of %#x; ids must be dense from zero", id, uint64(Span)))
	}
	cp := &d.root[id>>ChunkBits]
	c := cp.Load()
	if c == nil {
		c = publish(&d.mu, cp)
	}
	lp := &c[id>>LeafBits&(1<<(ChunkBits-LeafBits)-1)]
	l := lp.Load()
	if l == nil {
		l = publish(&d.mu, lp)
	}
	bp := &l[id>>BlockBits&(1<<(LeafBits-BlockBits)-1)]
	b := bp.Load()
	if b == nil {
		b = publish(&d.mu, bp)
	}
	return &b[id&(1<<BlockBits-1)]
}

// Range calls f for every entry of every block that exists, in ascending
// id, until f returns false. Like Get it takes no lock: a block published
// during the walk may or may not be visited. Entries of a block that were
// never handed out by Get are visited too, as zero values.
func (d *Directory[T]) Range(f func(id uint64, e *T) bool) {
	for ci := range d.root {
		c := d.root[ci].Load()
		if c == nil {
			continue
		}
		for li := range c {
			l := c[li].Load()
			if l == nil {
				continue
			}
			for bi := range l {
				b := l[bi].Load()
				if b == nil {
					continue
				}
				base := uint64(ci)<<ChunkBits | uint64(li)<<LeafBits | uint64(bi)<<BlockBits
				for i := range b {
					if !f(base|uint64(i), &b[i]) {
						return
					}
				}
			}
		}
	}
}

// publish is a level's first touch: it stores a zero L in *p unless one is
// there. It looks at *p again under mu, so racing first touches all return
// the one L that was stored.
func publish[L any](mu *sync.Mutex, p *atomic.Pointer[L]) *L {
	mu.Lock()
	defer mu.Unlock()
	v := p.Load()
	if v == nil {
		v = new(L)
		p.Store(v)
	}
	return v
}
