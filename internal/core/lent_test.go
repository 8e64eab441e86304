package core

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/ssd"
	"github.com/spitfire-db/spitfire/internal/testutil"
	"github.com/spitfire-db/spitfire/internal/zipf"
)

// TestLentFramesUnderWriters is the model test of lent frames
// (frameMeta.lent; dramPool.ownUnits and read, nvmPool.own and readPayload):
// pinned readers and writers share DRAM and NVM frames whose bytes an SSD
// store lent on a miss or an admission, while evictions, the cleaner and
// re-fetches recycle the frames under them. Every read must see the page's
// newest bytes, and afterwards every page's durable image — its NVM copy, or
// else its SSD page — must hold every write.
//
// The model is TestOptimisticPinVsEvict's: every unit of page pid starts
// with pid, and worker w keeps a counter behind the stamp of unit w that only
// it writes, so writers own distinct units. Every miss lends, and
// a third of all accesses write 8 bytes inside the writer's unit, so each
// write takes one unit of a lent frame over while other workers read other
// units from the lent page and write their own. A writer that took a unit
// over without copying it in would tear its stamp; a reader that ignored the
// frame's mask would miss a write; an admission or write-back that dropped
// the taken-over units would lose them. Run it with -cpu 1,2,4, under -race
// and -race -tags lockcheck.
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
		"dram": {DRAMBytes: 4 * PageSize, Policy: policy.SpitfireLazy},
		"three-tier": {DRAMBytes: 4 * PageSize, NVMBytes: 6 * nvmFrameSlot,
			Policy: policy.Policy{Dr: 0.5, Dw: 0.5, Nr: 0.2, Nw: 0.5}},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			bm := newBM(t, cfg)
			bm.StartCleaners()
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
			var lentWrites [TierNVM + 1]atomic.Int64 // writes that found their frame lent, by tier
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
							if h.Tier() == TierDRAM && bm.dram.meta[h.frame].lent.Load() != nil ||
								h.Tier() == TierNVM && bm.nvm.meta[h.frame].lent.Load() != nil {
								lentWrites[h.Tier()].Add(1)
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
			if lentWrites[TierDRAM].Load() == 0 || cfg.NVMBytes > 0 && lentWrites[TierNVM].Load() == 0 {
				t.Fatalf("writes that found their frame lent: %d in DRAM, %d in NVM; the test exercised too little",
					lentWrites[TierDRAM].Load(), lentWrites[TierNVM].Load())
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
					bm.nvm.copyOut(nf, 0, img)
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

// TestLentFrameTakesWritesByUnit: a miss into DRAM borrows the store's page
// whatever the intent, and a write takes over only the units it touches. The
// frame reads the lent page with those units on top; a checkpoint copies
// just them into the store's page, which the frame keeps; an admission to
// NVM hands the NVM frame the same lent page with those units on top, at the
// charges of an install from a frame that owns its whole page (a new page
// written whole).
func TestLentFrameTakesWritesByUnit(t *testing.T) {
	seeded := func() []byte {
		p := make([]byte, PageSize)
		marker(p, 0, 0)
		return p
	}
	write := func(t *testing.T, bm *BufferManager, ctx *Ctx, off int, data []byte) *Handle {
		t.Helper()
		h, err := bm.FetchPage(ctx, 0, WriteIntent)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WriteAt(ctx, off, data); err != nil {
			t.Fatal(err)
		}
		return h
	}

	t.Run("checkpoint", func(t *testing.T) {
		store := &countingStore{Store: ssd.NewMem(nil)}
		bm := newBM(t, Config{DRAMBytes: 4 * PageSize, Policy: policy.Policy{Dr: 1, Dw: 1}, SSD: store})
		defer bm.Close()
		seed(t, bm, 1)
		*store = countingStore{Store: store.Store}
		ctx := NewCtx(51)
		want := seeded()
		h := write(t, bm, ctx, 5*ssd.UnitSize+10, []byte{1, 2, 3})
		m := &bm.dram.meta[h.frame]
		if store.lends != 1 || store.reads != 0 || m.lent.Load() == nil || m.diff.Load() != 1<<5 {
			t.Fatalf("write-intent miss: %d lends, %d reads, lent %v, mask %#x; want 1, 0, true, unit 5",
				store.lends, store.reads, m.lent.Load() != nil, m.diff.Load())
		}
		lent := m.lent.Load()[:]
		if !bytes.Equal(lent, want) {
			t.Fatal("a write reached the lent page")
		}
		copy(want[5*ssd.UnitSize+10:], []byte{1, 2, 3})
		got := make([]byte, PageSize)
		if err := h.ReadAt(ctx, 0, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("the lent frame reads back wrong (err %v)", err)
		}
		h.Release()
		if err := bm.FlushDirtyDRAM(ctx); err != nil {
			t.Fatal(err)
		}
		if store.writes != 1 || store.units != 1<<5 || !bytes.Equal(lent, want) {
			t.Fatalf("checkpoint: %d writes of units %#x; the store's page holds the write: %v",
				store.writes, store.units, bytes.Equal(lent, want))
		}
		if m.lent.Load() == nil || m.diff.Load() != 0 || m.dirty.Load() {
			t.Fatal("after its checkpoint the frame should stay lent, clean, with an empty mask")
		}
		if err := bm.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("admission", func(t *testing.T) {
		want := seeded()
		copy(want[9*ssd.UnitSize:], bytes.Repeat([]byte{0xEE}, ssd.UnitSize))
		// admit evicts page pid's DRAM frame h into NVM and returns the NVM
		// copy's bytes and the NVM charges of the admission.
		admit := func(bm *BufferManager, ctx *Ctx, pid PageID, h *Handle) ([]byte, device.Stats) {
			v := h.frame
			h.Release()
			before := bm.nvm.pm.Device().Stats()
			evictCopy(t, &bm.dram.basePool, ctx, v)
			nf := bm.descriptorFor(pid).nvmFrame.Load()
			if nf == noFrame {
				t.Fatal("the dirty page was not admitted to NVM")
			}
			after := bm.nvm.pm.Device().Stats()
			after.ReadOps -= before.ReadOps
			after.WriteOps -= before.WriteOps
			after.BytesRead -= before.BytesRead
			after.BytesWritten -= before.BytesWritten
			img := make([]byte, PageSize)
			bm.nvm.copyOut(nf, 0, img)
			return img, after
		}
		cfg := Config{DRAMBytes: 4 * PageSize, NVMBytes: 4 * nvmFrameSlot, Policy: policy.Policy{Dr: 1, Dw: 1, Nr: 0, Nw: 1}}

		bm := newBM(t, cfg)
		defer bm.Close()
		seed(t, bm, 1)
		ctx := NewCtx(52)
		h := write(t, bm, ctx, 9*ssd.UnitSize, bytes.Repeat([]byte{0xEE}, ssd.UnitSize))
		if bm.dram.meta[h.frame].lent.Load() == nil {
			t.Fatal("a miss into DRAM did not lend the frame its page")
		}
		lentPage, lentCharges := admit(bm, ctx, 0, h)

		owner := newBM(t, cfg)
		defer owner.Close()
		pid, h, err := owner.NewPage(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Tier() != TierDRAM || owner.dram.meta[h.frame].lent.Load() != nil {
			t.Fatalf("new page placed in %v, lent %v; want an owned DRAM frame", h.Tier(), owner.dram.meta[h.frame].lent.Load() != nil)
		}
		if err := h.WriteAt(ctx, 0, want); err != nil {
			t.Fatal(err)
		}
		ownedPage, ownedCharges := admit(owner, ctx, pid, h)

		if !bytes.Equal(lentPage, want) || !bytes.Equal(ownedPage, want) {
			t.Fatalf("the NVM copy is wrong: composed from a lent frame %v, from an owned one %v",
				bytes.Equal(lentPage, want), bytes.Equal(ownedPage, want))
		}
		if lentCharges != ownedCharges {
			t.Fatalf("admitting a lent frame charged NVM %+v, an owned one %+v", lentCharges, ownedCharges)
		}
	})
}
