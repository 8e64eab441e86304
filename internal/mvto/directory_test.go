package mvto

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"github.com/spitfire-db/spitfire/internal/dense"
)

// TestDirectoryLayout pins the sizes the directory is built from: a 32-byte
// tupleMeta makes a block of 64 one 2 KiB size class, and every level is a
// size class with no slack. Padding tupleMeta to 64 B, so neighbouring
// tuples never share a cache line, did not pay on kv-txn (two vCPUs, 14
// paired 15 s runs against the 32-byte entry): p99 latency better in 6,
// ops/s in 8, medians within the spread, while set-up time rose 13 % and
// the directory's bytes doubled.
func TestDirectoryLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"tupleMeta", unsafe.Sizeof(tupleMeta{}), 32},
		{"block", unsafe.Sizeof(dense.Block[tupleMeta]{}), 2 << 10},
		{"leaf (one page's slots)", unsafe.Sizeof(dense.Leaf[tupleMeta]{}), 512},
		{"chunk", unsafe.Sizeof(dense.Chunk[tupleMeta]{}), 8 << 10},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// TestOneEntryPerRIDUnderConcurrentFirstTouch releases many goroutines at
// once on a fresh manager, each looking up RIDs whose first touch publishes
// a level of the directory: either side of a block boundary, of a page
// boundary and of a chunk boundary. Every caller of one RID must get the
// one entry that stays, and distinct RIDs distinct entries.
func TestOneEntryPerRIDUnderConcurrentFirstTouch(t *testing.T) {
	const slotMax = 1<<SlotBits - 1
	rids := []uint64{
		0,
		5<<SlotBits | (1<<dense.BlockBits - 1), 5<<SlotBits | 1<<dense.BlockBits, // block boundary
		5<<SlotBits | slotMax, 6 << SlotBits, // page boundary
		1<<dense.ChunkBits - 1, 1 << dense.ChunkBits, // chunk boundary
		3<<dense.ChunkBits | 7,
	}
	const rounds, workers = 200, 8
	for r := 0; r < rounds; r++ {
		m := NewManager()
		got := make([][]*tupleMeta, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := range got {
			got[w] = make([]*tupleMeta, len(rids))
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				// Each worker starts at a different RID, so first touches
				// of every level race each other.
				for i := range rids {
					j := (i + w) % len(rids)
					got[w][j] = m.metaFor(rids[j])
				}
			}()
		}
		close(start)
		wg.Wait()

		seen := make(map[*tupleMeta]uint64, len(rids))
		for j, rid := range rids {
			e := m.metaFor(rid)
			for w := range got {
				if got[w][j] != e {
					t.Fatalf("round %d: worker %d got an entry for RID %#x that the directory no longer holds", r, w, rid)
				}
			}
			if other, dup := seen[e]; dup {
				t.Fatalf("round %d: RIDs %#x and %#x share an entry", r, other, rid)
			}
			seen[e] = rid
		}
	}
}

// TestStrayRIDStaysCheap: what a first touch allocates does not grow with
// the RID. The last page the root spans costs one chunk, one page and one
// block; a RID on a page past it breaks the dense-page contract and panics
// rather than allocating anything.
func TestStrayRIDStaysCheap(t *testing.T) {
	m := NewManager()
	last := uint64(dense.Span - 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := m.metaFor(last)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<10 {
		t.Errorf("first touch of RID %#x allocated %d bytes, want at most 16 KiB", last, grew)
	}
	if m.metaFor(last) != e {
		t.Errorf("RID %#x has two entries", last)
	}

	for _, rid := range []uint64{dense.Span, ^uint64(0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RID %#x is past the directory's span but did not panic", rid)
				}
			}()
			m.metaFor(rid)
		}()
	}
}
