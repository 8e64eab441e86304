package core

import (
	"encoding/binary"
	"sync"
	"testing"

	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/testutil"
	"github.com/spitfire-db/spitfire/internal/zipf"
)

// TestOptimisticPinVsEvict is the model test of the lock-free hit protocol
// (fetchPage, pinPage): fetchers race evictions, migrations and mini-page
// promotions over far more pages than the buffers hold, with the background
// cleaner on, and every handle they get must be a handle to the page they
// asked for, holding that page's newest bytes.
//
// The model: every loading unit of page pid starts with pid, and worker w
// keeps a counter behind the stamp of unit w that only it writes. A fetch
// that pinned a frame which had moved on to another page reads a foreign
// stamp; one that was served a stale copy (an NVM hit while a newer DRAM copy
// exists) reads an old counter. Run it with -cpu 1,2,4, under -race and
// -race -tags lockcheck.
func TestOptimisticPinVsEvict(t *testing.T) {
	const (
		pages   = 64 // K; the pools below hold 14 < K/4 frames
		workers = 6
		hot     = 8 // half the draws go to the first 8 pages, so hits race evictions
		unit    = 256
	)
	opsEach := 30000 // long enough that dropping pinPage's pid check fails most runs at -cpu 2 and every run at -cpu 4
	if testing.Short() || testutil.RaceEnabled() {
		opsEach = 4000 // the race detector is there for the accesses, not the odds
	}
	cleaner := CleanerConfig{Enable: true}
	cfgs := map[string]Config{
		"lazy": {DRAMBytes: 6 * PageSize, NVMBytes: 8 * nvmFrameSlot, Policy: policy.SpitfireLazy,
			Shards: 2, Cleaner: cleaner},
		"mixed": {DRAMBytes: 6 * PageSize, NVMBytes: 8 * nvmFrameSlot,
			Policy: policy.Policy{Dr: 0.5, Dw: 0.5, Nr: 0.5, Nw: 0.5}, Shards: 2, Cleaner: cleaner},
		"mini": {DRAMBytes: 6 * PageSize, NVMBytes: 8 * nvmFrameSlot, Policy: policy.SpitfireEager,
			FineGrained: true, LoadingUnit: unit, MiniPages: true, Cleaner: cleaner},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			bm := newBM(t, cfg)
			defer bm.Close()
			loader := NewCtx(1)
			page := make([]byte, PageSize)
			for pid := uint64(0); pid < pages; pid++ {
				for off := 0; off < PageSize; off += unit {
					binary.LittleEndian.PutUint64(page[off:], pid)
				}
				if err := bm.SeedPage(loader, pid, page); err != nil {
					t.Fatal(err)
				}
			}

			var counts [workers][pages]uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ctx := NewCtx(uint64(w) + 100)
					rng := zipf.NewRand(uint64(w)*977 + 5)
					buf := make([]byte, 16)
					for i := 0; i < opsEach; i++ {
						pid := rng.Uint64n(pages)
						if rng.Uint64n(2) == 0 {
							pid %= hot
						}
						write := rng.Uint64n(5) == 0
						intent := ReadIntent
						if write {
							intent = WriteIntent
						}
						h, err := bm.FetchPage(ctx, pid, intent)
						if err != nil {
							t.Errorf("worker %d: fetch page %d: %v", w, pid, err)
							return
						}
						if h.PageID() != pid {
							t.Errorf("worker %d: fetched page %d, handle says %d", w, pid, h.PageID())
						}
						// Another worker's unit: the stamp only.
						other := int(rng.Uint64n(PageSize / unit))
						if err := h.ReadAt(ctx, other*unit, buf[:8]); err != nil {
							t.Errorf("worker %d: read page %d: %v", w, pid, err)
						} else if got := binary.LittleEndian.Uint64(buf); got != pid {
							t.Errorf("worker %d: page %d unit %d is stamped %d", w, pid, other, got)
						}
						// This worker's unit: stamp and counter.
						if err := h.ReadAt(ctx, w*unit, buf); err != nil {
							t.Errorf("worker %d: read page %d: %v", w, pid, err)
						} else {
							if got := binary.LittleEndian.Uint64(buf); got != pid {
								t.Errorf("worker %d: page %d unit %d is stamped %d", w, pid, w, got)
							}
							if got := binary.LittleEndian.Uint64(buf[8:]); got != counts[w][pid] {
								t.Errorf("worker %d: page %d counter reads %d, last wrote %d", w, pid, got, counts[w][pid])
							}
						}
						if write {
							counts[w][pid]++
							binary.LittleEndian.PutUint64(buf[8:], counts[w][pid])
							if err := h.WriteAt(ctx, w*unit+8, buf[8:]); err != nil {
								t.Errorf("worker %d: write page %d: %v", w, pid, err)
							}
						}
						h.Release()
						if t.Failed() {
							return
						}
					}
				}(w)
			}
			wg.Wait()
			bm.Close() // CheckConsistency wants the cleaners stopped
			if t.Failed() {
				return
			}
			checkNoLeakedPins(t, bm)
			if err := bm.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPinPageRejectsReusedFrame walks the interleaving the model test above
// only meets by chance, one step at a time: a fetcher reads page 0's slot, the
// frame is evicted and handed to page 1, and only then does the fetcher pin.
// The pin succeeds — the frame is resident again — so it is the pid check that
// must turn the fetcher away, and it must leave no pin behind.
func TestPinPageRejectsReusedFrame(t *testing.T) {
	bm := newBM(t, Config{DRAMBytes: PageSize, Policy: policy.Policy{Dr: 1, Dw: 1}})
	seed(t, bm, 2)
	ctx := NewCtx(7)
	h, err := bm.FetchPage(ctx, 0, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	f := bm.descriptorFor(0).dramFrame.Load() // the fetcher's slot read
	h.Release()
	if !bm.dram.pinPage(f, 0) {
		t.Fatal("pinPage refused the frame its own slot names")
	}
	bm.dram.meta[f].unpin()

	h, err = bm.FetchPage(ctx, 1, ReadIntent) // one frame: page 0 is evicted, page 1 takes it
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if got := bm.descriptorFor(1).dramFrame.Load(); got != f {
		t.Fatalf("page 1 landed in frame %d, want the reused frame %d", got, f)
	}
	if bm.dram.pinPage(f, 0) {
		t.Fatal("pinPage pinned page 1's frame for a fetch of page 0")
	}
	if pins := bm.dram.meta[f].pins.Load(); pins != 0 {
		t.Fatalf("a refused pinPage left %d pins on the frame", pins)
	}
}

// TestNVMHitYieldsToDRAMCopy is the same walk for the hazard of reading three
// slots one at a time: a fetcher sees the DRAM slots empty and reads the NVM
// slot, a migration up completes and the DRAM copy is modified, and only then
// does the fetcher pin the NVM frame. The frame still holds the page, so
// pinPage alone would serve the stale copy; pinNVMCopy must refuse.
func TestNVMHitYieldsToDRAMCopy(t *testing.T) {
	bm := newBM(t, Config{DRAMBytes: 2 * PageSize, NVMBytes: 2 * nvmFrameSlot,
		Policy: policy.Policy{Dr: 0, Dw: 0, Nr: 1, Nw: 1}})
	seed(t, bm, 1)
	ctx := NewCtx(7)
	h, err := bm.FetchPage(ctx, 0, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	if h.Tier() != TierNVM {
		t.Fatalf("page fetched into %v, want NVM", h.Tier())
	}
	h.Release()
	d := bm.descriptorFor(0)
	nf := d.nvmFrame.Load() // the fetcher's slot read, DRAM slots seen empty
	if !bm.pinNVMCopy(d, nf) {
		t.Fatal("pinNVMCopy refused the only copy of the page")
	}
	bm.nvm.meta[nf].unpin()

	h, err = bm.migrateUp(ctx, d)
	if err != nil || h == nil {
		t.Fatalf("migrateUp = %v, %v", h, err)
	}
	if err := h.WriteAt(ctx, 0, []byte("newer")); err != nil {
		t.Fatal(err)
	}
	h.Release()
	if bm.pinNVMCopy(d, nf) {
		t.Fatal("pinNVMCopy served the NVM copy while a newer DRAM copy exists")
	}
	if pins := bm.nvm.meta[nf].pins.Load(); pins != 0 {
		t.Fatalf("a refused pinNVMCopy left %d pins on the frame", pins)
	}
}
