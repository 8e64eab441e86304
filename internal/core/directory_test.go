package core

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"github.com/spitfire-db/spitfire/internal/dense"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/testutil"
)

// TestDescriptorLayout pins the inline descriptor at one cache line, so a
// migration that writes one page's latches never shares a line with a
// neighbour's hit, and a block of 64 at the 4 KiB size class (whose objects
// are 4 KiB-aligned, so each descriptor is line-aligned too).
func TestDescriptorLayout(t *testing.T) {
	if sz := unsafe.Sizeof(descriptor{}); sz != 64 {
		t.Errorf("descriptor is %d bytes, want 64", sz)
	}
	if sz := unsafe.Sizeof(dense.Block[descriptor]{}); sz != 4<<10 {
		t.Errorf("a block of descriptors is %d bytes, want 4 KiB", sz)
	}
}

// TestOneDescriptorPerPageUnderConcurrentFirstFetch releases 8 goroutines
// at once on the first fetches of pages either side of a block, a leaf and
// a chunk boundary of the page table, so first touches of every level race
// each other. Every caller of one page must get the one descriptor, named
// with its page, and the manager must pass its consistency audit.
func TestOneDescriptorPerPageUnderConcurrentFirstFetch(t *testing.T) {
	pids := []PageID{
		1<<dense.BlockBits - 1, 1 << dense.BlockBits,
		1<<dense.LeafBits - 1, 1 << dense.LeafBits,
		1<<dense.ChunkBits - 1, 1 << dense.ChunkBits,
	}
	const rounds, workers = 20, 8
	page := make([]byte, PageSize)
	for r := 0; r < rounds; r++ {
		bm := newBM(t, Config{DRAMBytes: 16 * PageSize, NVMBytes: 16 * nvmFrameSlot, Policy: policy.SpitfireLazy})
		loader := NewCtx(1)
		for _, pid := range pids {
			if err := bm.SeedPage(loader, pid, page); err != nil {
				t.Fatal(err)
			}
		}
		got := make([][]*descriptor, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := range got {
			got[w] = make([]*descriptor, len(pids))
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx := NewCtx(uint64(w) + 2)
				<-start
				for i := range pids {
					j := (i + w) % len(pids)
					h, err := bm.FetchPage(ctx, pids[j], ReadIntent)
					if err != nil {
						t.Error(err)
						return
					}
					got[w][j] = h.d
					h.Release()
				}
			}()
		}
		close(start)
		wg.Wait()

		seen := make(map[*descriptor]PageID, len(pids))
		for j, pid := range pids {
			d := bm.descriptorFor(pid)
			for w := range got {
				if got[w][j] != d {
					t.Fatalf("round %d: worker %d fetched page %d through a descriptor the table no longer holds", r, w, pid)
				}
			}
			if d.pid != pid {
				t.Fatalf("round %d: page %d's descriptor names page %d", r, pid, d.pid)
			}
			if other, dup := seen[d]; dup {
				t.Fatalf("round %d: pages %d and %d share a descriptor", r, other, pid)
			}
			seen[d] = pid
		}
		if err := bm.CheckConsistency(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		checkNoLeakedPins(t, bm)
		bm.Close()
	}
}

// TestHeapObjectsPerPage counts what the page table leaves on the heap for
// each page it has seen: descriptors live inline in 4 KiB blocks of 64, so
// a page's share is about 1/64 of an object. A descriptor allocated on its
// own, or a hash node per page, would put it at one or more.
func TestHeapObjectsPerPage(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("heap readings are not meaningful under -race")
	}
	const (
		pages  = 8192
		budget = 0.05
	)
	bm := newBM(t, Config{DRAMBytes: 64 * PageSize, NVMBytes: 64 * nvmFrameSlot, Policy: policy.SpitfireLazy})
	defer bm.Close()
	seed(t, bm, pages)
	ctx := NewCtx(2)
	heapObjects := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	before := heapObjects()
	for pid := PageID(0); pid < pages; pid++ {
		h, err := bm.FetchPage(ctx, pid, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	after := heapObjects()
	perPage := (float64(after) - float64(before)) / pages
	t.Logf("%d pages fetched once left %d heap objects: %.3f per page", pages, int64(after)-int64(before), perPage)
	if perPage > budget {
		t.Errorf("a fetched page leaves %.3f heap objects, budget %.2f", perPage, budget)
	}
}
