package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/spitfire-db/spitfire/internal/lockcheck"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/testutil"
)

// TestHitPathLayout pins the layouts the hit path depends on: one frame's
// metadata per cache line, counter blocks that are whole cache lines with
// enough trailing padding that two workers' counters never share a line, and
// a pool's free list off the lines of the fields a hit reads (a BufferManager
// and its pools are only 8-byte aligned, so the distance is what counts).
func TestHitPathLayout(t *testing.T) {
	if sz := unsafe.Sizeof(frameMeta{}); sz != 64 {
		t.Errorf("frameMeta is %d bytes, want 64 (the NVM header staging area must fit its padding)", sz)
	}
	var b statBlock
	counters := unsafe.Sizeof(b.c)
	if sz := unsafe.Sizeof(b); sz%64 != 0 || sz-counters < 56 {
		t.Errorf("statBlock is %d bytes with %d of counters: want whole cache lines and >= 56 bytes of padding", sz, counters)
	}
	if lead := unsafe.Offsetof(bmStats{}.blocks); lead < 56 {
		t.Errorf("block 0 starts %d bytes into bmStats: want >= 56 bytes between it and the field before", lead)
	}
	// The free list is written by every allocation and release; the fields
	// before it, and the pool type's fields after the embedded basePool, are
	// read by every hit.
	var p basePool
	if lead := unsafe.Offsetof(p.freeMu) - (unsafe.Offsetof(p.clock) + unsafe.Sizeof(p.clock)); lead < 56 {
		t.Errorf("the free list starts %d bytes after the field before it: want >= 56", lead)
	}
	if tail := unsafe.Sizeof(p) - (unsafe.Offsetof(p.freeLen) + unsafe.Sizeof(p.freeLen)); tail < 56 {
		t.Errorf("basePool ends %d bytes after the free list: want >= 56", tail)
	}
}

// TestCtxLayout pins what keeps one worker's fetches and releases off the
// lines other workers read: a Ctx's handle stack ends at least 56 bytes
// before the next object the allocator may place after it, and starts at
// least 56 bytes into the Ctx, past the previous object's end; a handle
// is a 64-byte size class, one per line.
func TestCtxLayout(t *testing.T) {
	var c Ctx
	if lead := unsafe.Offsetof(c.handles); lead < 56 {
		t.Errorf("the handle stack starts %d bytes into a Ctx: want >= 56", lead)
	}
	if tail := unsafe.Sizeof(c) - (unsafe.Offsetof(c.nHandles) + unsafe.Sizeof(c.nHandles)); tail < 56 {
		t.Errorf("a Ctx ends %d bytes after its handle stack: want >= 56", tail)
	}
	if sz := unsafe.Sizeof(Handle{}); sz != 64 {
		t.Errorf("Handle is %d bytes, want 64", sz)
	}
}

// hotBM builds a manager whose DRAM buffer holds all `pages` seeded pages and
// fetches each once, so every later fetch is a DRAM hit.
func hotBM(tb testing.TB, pages int) *BufferManager {
	tb.Helper()
	bm, err := New(Config{
		DRAMBytes: int64(2*pages) * PageSize,
		NVMBytes:  4 * nvmFrameSlot,
		Policy:    policy.Policy{Dr: 1, Dw: 1, Nr: 0, Nw: 0},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(bm.Close)
	ctx := NewCtx(1)
	page := make([]byte, PageSize)
	for pid := uint64(0); pid < uint64(pages); pid++ {
		if err := bm.SeedPage(ctx, pid, page); err != nil {
			tb.Fatal(err)
		}
		h, err := bm.FetchPage(ctx, pid, ReadIntent)
		if err != nil {
			tb.Fatal(err)
		}
		h.Release()
	}
	return bm
}

// TestHitAllocationBudget pins a DRAM hit, a 256 B read and the release at
// zero allocations: the handle is the one the Ctx's last Release returned.
func TestHitAllocationBudget(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("the race detector allocates on its own account")
	}
	if lockcheck.Enabled {
		t.Skip("the lockcheck build never reissues a released handle")
	}
	const pages = 8
	bm := hotBM(t, pages)
	ctx := NewCtx(2)
	buf := make([]byte, 256)
	pid := uint64(0)
	got := testing.AllocsPerRun(1000, func() {
		h, err := bm.FetchPage(ctx, pid%pages, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.ReadAt(ctx, 512, buf); err != nil {
			t.Fatal(err)
		}
		h.Release()
		pid++
	})
	if got != 0 {
		t.Fatalf("a DRAM hit + ReadAt + Release allocates %.2f objects, want 0", got)
	}
	if st := bm.Stats(); st.MissSSD != pages {
		t.Fatalf("%d misses: the measured loop was not all hits", st.MissSSD-pages)
	}
}

// BenchmarkHitParallel is the in-module reference for hit-path scaling: the
// bm-hot shape (512 resident pages, a 256 B read per fetch) from GOMAXPROCS
// workers. Run it with -cpu 1,2: ns/op is wall time over all workers' ops, so
// perfect scaling halves it and a serialising hit path leaves it flat or worse.
func BenchmarkHitParallel(b *testing.B) {
	const pages = 512
	bm := hotBM(b, pages)
	// The worker contexts are built here, back to back by one goroutine, the
	// way the rig, the harness and the server's pool build theirs: what the
	// allocator then places side by side is part of what is measured.
	ctxs := make([]*Ctx, runtime.GOMAXPROCS(0))
	for i := range ctxs {
		ctxs[i] = NewCtx(uint64(i) + 100)
	}
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := worker.Add(1) - 1
		ctx := ctxs[w]
		rng := uint64(w)*2654435761 + 1
		buf := make([]byte, 256)
		for pb.Next() {
			rng = rng*6364136223846793005 + 1442695040888963407
			h, err := bm.FetchPage(ctx, (rng>>33)%pages, ReadIntent)
			if err != nil {
				b.Error(err)
				return
			}
			if err := h.ReadAt(ctx, int(rng>>58)*256, buf); err != nil {
				b.Error(err)
				h.Release()
				return
			}
			h.Release()
		}
	})
}
