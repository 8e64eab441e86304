package dense

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// The two entry shapes the tree stores: the version store's 32-byte tuple
// entry and the buffer manager's 64-byte page descriptor. Each test below
// runs for both.
type (
	entry32 [4]uint64
	entry64 [8]uint64
)

// TestLayout pins the sizes the directory is built from: every level is an
// exact size class, so a first touch wastes nothing — a block of 32-byte
// entries is 2 KiB, one of 64-byte entries 4 KiB, a leaf 512 B and a chunk
// 8 KiB whatever the entry.
func TestLayout(t *testing.T) {
	testLayout[entry32](t, 2<<10)
	testLayout[entry64](t, 4<<10)
}

func testLayout[T any](t *testing.T, block uintptr) {
	var e T
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Block", unsafe.Sizeof(Block[T]{}), block},
		{"Leaf", unsafe.Sizeof(Leaf[T]{}), 512},
		{"Chunk", unsafe.Sizeof(Chunk[T]{}), 8 << 10},
		{"root", unsafe.Sizeof(Directory[T]{}.root), 32 << 10},
	} {
		if c.got != c.want {
			t.Errorf("%d-byte entries: %s is %d bytes, want %d", unsafe.Sizeof(e), c.name, c.got, c.want)
		}
	}
}

// boundaryIDs sit either side of each level's boundary: a block, a leaf and
// a chunk.
var boundaryIDs = []uint64{
	0,
	1<<BlockBits - 1, 1 << BlockBits,
	1<<LeafBits - 1, 1 << LeafBits,
	1<<ChunkBits - 1, 1 << ChunkBits,
	3<<ChunkBits | 7,
}

// TestOneEntryPerIDUnderConcurrentFirstTouch releases many goroutines at
// once on a fresh directory, each looking up ids whose first touch
// publishes a level. Every caller of one id must get the one entry that
// stays, and distinct ids distinct entries.
func TestOneEntryPerIDUnderConcurrentFirstTouch(t *testing.T) {
	testFirstTouch[entry32](t)
	testFirstTouch[entry64](t)
}

func testFirstTouch[T any](t *testing.T) {
	const rounds, workers = 200, 8
	for r := 0; r < rounds; r++ {
		d := new(Directory[T])
		got := make([][]*T, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := range got {
			got[w] = make([]*T, len(boundaryIDs))
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				// Each worker starts at a different id, so first touches
				// of every level race each other.
				for i := range boundaryIDs {
					j := (i + w) % len(boundaryIDs)
					got[w][j] = d.Get(boundaryIDs[j])
				}
			}()
		}
		close(start)
		wg.Wait()

		seen := make(map[*T]uint64, len(boundaryIDs))
		for j, id := range boundaryIDs {
			e := d.Get(id)
			for w := range got {
				if got[w][j] != e {
					t.Fatalf("round %d: worker %d got an entry for id %#x that the directory no longer holds", r, w, id)
				}
			}
			if other, dup := seen[e]; dup {
				t.Fatalf("round %d: ids %#x and %#x share an entry", r, other, id)
			}
			seen[e] = id
		}
	}
}

// TestStrayIDStaysCheap: what a first touch allocates does not grow with
// the id. The last id the root spans costs one chunk, one leaf and one
// block; an id past it breaks the dense-id contract and panics rather than
// allocating anything.
func TestStrayIDStaysCheap(t *testing.T) {
	testStrayID[entry32](t)
	testStrayID[entry64](t)
}

func testStrayID[T any](t *testing.T) {
	last := uint64(Span - 1)
	// The heap counters are process-wide, so take the least of a few first
	// touches: what another goroutine allocates meanwhile only adds.
	var d *Directory[T]
	grew := ^uint64(0)
	for range 3 {
		d = new(Directory[T])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d.Get(last)
		runtime.ReadMemStats(&after)
		grew = min(grew, after.TotalAlloc-before.TotalAlloc)
	}
	if grew > 16<<10 {
		t.Errorf("first touch of id %#x allocated %d bytes, want at most 16 KiB", last, grew)
	}
	if e := d.Get(last); d.Get(last) != e {
		t.Errorf("id %#x has two entries", last)
	}
	for _, id := range []uint64{Span, ^uint64(0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("id %#x is past the directory's span but did not panic", id)
				}
			}()
			d.Get(id)
		}()
	}
}

// TestRange: a walk visits every entry of every block that exists, in
// ascending id, hands out the entries Get does, stops when told to, and
// takes no lock — it finishes while a first touch holds the directory's
// mutex.
func TestRange(t *testing.T) {
	d := new(Directory[entry64])
	for _, id := range boundaryIDs {
		d.Get(id)[0] = id + 1
	}
	d.mu.Lock()
	var ids []uint64
	marked := 0
	d.Range(func(id uint64, e *entry64) bool {
		if len(ids) > 0 && id <= ids[len(ids)-1] {
			t.Fatalf("Range visited id %#x after %#x", id, ids[len(ids)-1])
		}
		ids = append(ids, id)
		if e[0] != 0 {
			if e[0] != id+1 {
				t.Fatalf("Range handed id %#x the entry of id %#x", id, e[0]-1)
			}
			marked++
		}
		return true
	})
	d.mu.Unlock()
	// 0 and 63 share a block; every other id has a block of its own.
	if want := (len(boundaryIDs) - 1) << BlockBits; len(ids) != want {
		t.Errorf("Range visited %d entries, want %d (the blocks that exist)", len(ids), want)
	}
	if marked != len(boundaryIDs) {
		t.Errorf("Range visited %d of the %d entries that were touched", marked, len(boundaryIDs))
	}

	n := 0
	d.Range(func(uint64, *entry64) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("Range went on for %d entries after f returned false at the third", n)
	}
}
