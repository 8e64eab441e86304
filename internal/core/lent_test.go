package core

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/testutil"
	"github.com/spitfire-db/spitfire/internal/zipf"
)

// TestLentFramesUnderWriters is the model test of lent DRAM frames
// (frameMeta.lent, dramPool.own): pinned readers and writers share frames
// whose bytes an SSD store lent on a read miss, while evictions, the cleaner
// and re-fetches recycle the frames under them. Every read must see the
// page's newest bytes, and afterwards every page's durable image — its NVM
// copy, or else its SSD page — must hold every write.
//
// The model is TestOptimisticPinVsEvict's: every unit of page pid starts
// with pid, and worker w keeps a counter behind the stamp of unit w that only
// it writes, so writers own distinct units. Most fetches are read-intent, so
// most misses lend, and a third of all accesses write, mostly through
// read-intent handles: the first of them copies the lent page in while other
// workers read and write the same frame. A writer that wrote the arena
// without copying the page in would tear the stamps; one that left the page
// lent would lose its write; an eviction that left a frame lent trips own's
// check when a write-intent miss refills the frame. Run it with -cpu 1,2,4,
// under -race and -race -tags lockcheck.
func TestLentFramesUnderWriters(t *testing.T) {
	const (
		pages   = 24 // the DRAM buffers below hold 4 frames
		workers = 6
		hot     = 4 // half the draws share 4 pages, so writers meet on lent frames
		unit    = 256
	)
	opsEach := 20000
	if testing.Short() || testutil.RaceEnabled() {
		opsEach = 3000
	}
	cfgs := map[string]Config{
		"dram": {DRAMBytes: 4 * PageSize, Policy: policy.SpitfireLazy, Cleaner: true},
		"three-tier": {DRAMBytes: 4 * PageSize, NVMBytes: 6 * nvmFrameSlot,
			Policy: policy.Policy{Dr: 0.5, Dw: 0.5, Nr: 0.2, Nw: 0.5}, Cleaner: true},
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
			var lentWrites atomic.Int64 // writes that found their frame lent
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ctx := NewCtx(uint64(w) + 200)
					rng := zipf.NewRand(uint64(w)*7919 + 3)
					buf := make([]byte, 16)
					for i := 0; i < opsEach; i++ {
						pid := rng.Uint64n(pages)
						if rng.Uint64n(2) == 0 {
							pid %= hot
						}
						intent := ReadIntent
						if rng.Uint64n(10) == 0 {
							intent = WriteIntent
						}
						h, err := bm.FetchPage(ctx, pid, intent)
						if err != nil {
							t.Errorf("worker %d: fetch page %d: %v", w, pid, err)
							return
						}
						other := int(rng.Uint64n(PageSize / unit))
						if err := h.ReadAt(ctx, other*unit, buf[:8]); err != nil {
							t.Errorf("worker %d: read page %d: %v", w, pid, err)
						} else if got := binary.LittleEndian.Uint64(buf); got != pid {
							t.Errorf("worker %d: page %d unit %d is stamped %d", w, pid, other, got)
						}
						if err := h.ReadAt(ctx, w*unit, buf); err != nil {
							t.Errorf("worker %d: read page %d: %v", w, pid, err)
						} else if stamp, got := binary.LittleEndian.Uint64(buf), binary.LittleEndian.Uint64(buf[8:]); stamp != pid || got != counts[w][pid] {
							t.Errorf("worker %d: page %d unit %d reads stamp %d counter %d, want %d and %d",
								w, pid, w, stamp, got, pid, counts[w][pid])
						}
						if rng.Uint64n(3) == 0 {
							if h.Tier() == TierDRAM && bm.dram.meta[h.frame].lent.Load() != nil {
								lentWrites.Add(1)
							}
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
			bm.Close() // CheckConsistency and the checkpoint below want the cleaners stopped
			if t.Failed() {
				return
			}
			if lentWrites.Load() == 0 {
				t.Fatal("no write found its frame lent: the test exercised nothing")
			}
			checkNoLeakedPins(t, bm)
			if err := bm.CheckConsistency(); err != nil {
				t.Fatal(err)
			}

			// Every write reached durable media: write DRAM down, then read
			// each page's NVM copy, or its SSD page when it has none.
			ctx := NewCtx(999)
			if err := bm.FlushDirtyDRAM(ctx); err != nil {
				t.Fatal(err)
			}
			img := make([]byte, PageSize)
			for pid := uint64(0); pid < pages; pid++ {
				if nf := bm.descriptorFor(pid).nvmFrame.Load(); nf != noFrame {
					copy(img, bm.nvm.pm.Bytes(bm.nvm.payloadOffset(nf), PageSize))
				} else if err := bm.Disk().ReadPage(ctx.Clock, pid, img); err != nil {
					t.Fatal(err)
				}
				for off := 0; off < PageSize; off += unit {
					if got := binary.LittleEndian.Uint64(img[off:]); got != pid {
						t.Fatalf("page %d: durable unit %d is stamped %d", pid, off/unit, got)
					}
				}
				for w := 0; w < workers; w++ {
					if got := binary.LittleEndian.Uint64(img[w*unit+8:]); got != counts[w][pid] {
						t.Fatalf("page %d: worker %d's durable counter is %d, last wrote %d", pid, w, got, counts[w][pid])
					}
				}
			}
		})
	}
}
