package core

import (
	"sync"
	"testing"

	"github.com/spitfire-db/spitfire/internal/lockcheck"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/testutil"
	"github.com/spitfire-db/spitfire/internal/zipf"
)

// TestChurnAllocationBudget is TestHitAllocationBudget for everything else a
// warm buffer manager does: misses into DRAM and into NVM, NVM→DRAM
// migrations, dirty DRAM evictions admitted to NVM by the Nw coin and by the
// admission queue, NVM evictions written back to SSD, the background
// cleaner, NewPage, and reads and writes on DRAM and NVM copies. A run is a
// batch of operations, and the count is of the whole batch — a stray
// allocation every few hundred operations fails it. Stats proves every one
// of those paths ran inside the measured batches.
func TestChurnAllocationBudget(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("the race detector allocates on its own account")
	}
	if lockcheck.Enabled {
		t.Skip("the lockcheck build never reissues a released handle")
	}
	const (
		pages    = 256 // over 16 DRAM and 32 NVM frames
		hot      = 32  // half the draws go to the first 32 pages, so NVM copies get hit
		batch    = 5000
		newEvery = 100 // every 100th operation is a NewPage
	)
	bm := newBM(t, Config{
		DRAMBytes: 16 * PageSize,
		NVMBytes:  32 * nvmFrameSlot,
		Policy:    policy.Policy{Dr: 0.2, Dw: 0.2, Nr: 0.5, Nw: 1},
	})
	bm.StartCleaners()
	defer bm.Close()
	seed(t, bm, pages)

	// A new page's descriptor block and SSD block are the page's data, not
	// garbage, and the table and the disk keep them. Create the ones the
	// batches below will use ahead of time, so what is counted is NewPage's
	// own work.
	zero := make([]byte, PageSize)
	loader := NewCtx(1)
	first := bm.NextPageID()
	for pid := first; pid < first+2*3*batch/newEvery; pid++ {
		bm.descriptorFor(pid)
		if err := bm.disk.WritePage(loader.Clock, pid, zero); err != nil {
			t.Fatal(err)
		}
	}

	ctx := NewCtx(7)
	rng := zipf.NewRand(11)
	buf := make([]byte, 256)
	var access [3][2]int // by tier, then read/write
	run := func() {
		for i := 0; i < batch; i++ {
			var h *Handle
			var err error
			write := true
			if i%newEvery == 0 {
				_, h, err = bm.NewPage(ctx)
			} else {
				pid := rng.Uint64n(pages)
				if rng.Uint64n(2) == 0 {
					pid %= hot
				}
				intent := ReadIntent
				if write = rng.Uint64n(4) == 0; write {
					intent = WriteIntent
				}
				h, err = bm.FetchPage(ctx, pid, intent)
			}
			if err != nil {
				t.Fatal(err)
			}
			off := int(rng.Uint64n(PageSize/256)) * 256
			if write {
				err = h.WriteAt(ctx, off, buf)
			} else {
				err = h.ReadAt(ctx, off, buf)
			}
			if err != nil {
				t.Fatal(err)
			}
			if write {
				access[h.Tier()][1]++
			} else {
				access[h.Tier()][0]++
			}
			h.Release()
		}
	}

	for _, mode := range []policy.NwMode{policy.NwProbabilistic, policy.NwAdmissionQueue} {
		pol := bm.Policy()
		pol.NwMode = mode
		if err := bm.SetPolicy(pol); err != nil {
			t.Fatal(err)
		}
		run() // warm: the Ctx's handles, the cleaners' buffers, the queue's nodes
		before := bm.Stats()
		access = [3][2]int{}
		if n := testing.AllocsPerRun(1, run); n != 0 {
			t.Errorf("%v: %d operations allocated %.0f objects, want 0", pol, batch, n)
		}
		st := bm.Stats()
		for _, c := range []struct {
			path string
			n    int64
		}{
			{"SSD→DRAM miss", st.SSDToDRAM - before.SSDToDRAM},
			{"SSD→NVM install", st.SSDToNVM - before.SSDToNVM},
			{"NVM→DRAM migration", st.NVMToDRAM - before.NVMToDRAM},
			{"NVM hit", st.HitNVM - before.HitNVM},
			{"DRAM→NVM admission", st.DRAMToNVM - before.DRAMToNVM},
			{"NVM→SSD write-back", st.NVMToSSD - before.NVMToSSD},
			{"NVM eviction", st.EvictNVM - before.EvictNVM},
			{"DRAM eviction", st.EvictDRAM - before.EvictDRAM},
			{"frame cleaned by the cleaner", st.CleanerCleanedDRAM + st.CleanerCleanedNVM -
				before.CleanerCleanedDRAM - before.CleanerCleanedNVM},
			{"DRAM read", int64(access[TierDRAM][0])},
			{"DRAM write", int64(access[TierDRAM][1])},
			{"NVM read", int64(access[TierNVM][0])},
			{"NVM write", int64(access[TierNVM][1])},
		} {
			if c.n == 0 {
				t.Errorf("%v: no %s in the measured batches", pol, c.path)
			}
		}
	}
}

// TestUnpinUnderflowPanics: releasing a copy of a handle after the handle
// itself drops the frame's pin a second time. That must panic in every
// build, before the negative count reads as a frozen frame.
func TestUnpinUnderflowPanics(t *testing.T) {
	bm := hotBM(t, 1)
	ctx := NewCtx(3)
	h, err := bm.FetchPage(ctx, 0, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	copied := *h
	h.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a second unpin of the same pin did not panic")
		}
	}()
	copied.Release()
}

// TestHandlesStayWithTheirCtx: workers on Ctxs of their own each hold
// several handles at once and release them in a shuffled order, over far
// fewer pages than pins, so the same frames are pinned by many handles at a
// time. Every handle pointer a fetch returns must be live nowhere else — not
// in another worker and not in the same one. Run it under -race: a handle
// that crossed from one Ctx's stack to another's is a data race.
func TestHandlesStayWithTheirCtx(t *testing.T) {
	const (
		workers = 4
		held    = 3
		pages   = 8
		rounds  = 2000
	)
	bm := hotBM(t, pages)
	var (
		mu   sync.Mutex
		live = map[*Handle]int{} // live handle → worker holding it
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := NewCtx(uint64(w) + 40)
			rng := zipf.NewRand(uint64(w) + 90)
			var hs [held]*Handle
			buf := make([]byte, 8)
			for r := 0; r < rounds; r++ {
				for i := range hs {
					// Distinct pages within one worker: one pin per page per
					// worker is core's rule.
					h, err := bm.FetchPage(ctx, uint64(w+i)%pages, ReadIntent)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					if other, ok := live[h]; ok {
						mu.Unlock()
						t.Errorf("worker %d was issued a handle worker %d still holds", w, other)
						return
					}
					live[h] = w
					mu.Unlock()
					hs[i] = h
				}
				for i := range hs {
					if err := hs[i].ReadAt(ctx, 0, buf); err != nil {
						t.Error(err)
						return
					}
				}
				for k := held; k > 0; k-- {
					i := int(rng.Uint64n(uint64(k)))
					h := hs[i]
					hs[i], hs[k-1] = hs[k-1], h
					mu.Lock()
					delete(live, h)
					mu.Unlock()
					h.Release()
				}
			}
		}(w)
	}
	wg.Wait()
}
