package core

import (
	"testing"

	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/ssd"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// readBytesCharger sums the DRAM bytes it is asked to price as reads.
type readBytesCharger struct{ read int64 }

func (r *readBytesCharger) ChargeRead(_ *vclock.Clock, _ int64, n int) { r.read += int64(n) }
func (r *readBytesCharger) ChargeWrite(*vclock.Clock, int64, int)      {}

// evictDRAMCopy evicts page pid's DRAM copy, full or mini frame, the way the
// victim search does, and frees the frame.
func evictDRAMCopy(t *testing.T, bm *BufferManager, ctx *Ctx, pid PageID) {
	t.Helper()
	loc := bm.descriptorFor(pid).load()
	p, v := &bm.dram.basePool, loc.dramFrame
	if v == noFrame {
		p, v = &bm.dram.mini.basePool, loc.dramMini
	}
	if !p.meta[v].tryFreeze() {
		t.Fatal("DRAM copy is pinned")
	}
	if ok, err := p.evict(ctx, v); !ok {
		t.Fatalf("evict: %v", err)
	}
	p.release(v)
}

// TestWriteDownChargesWhatItWrites dirties three units of a page's DRAM copy
// in each of its four layouts and writes the copy down, by checkpoint and by
// eviction. Both go through one write-down, so both must write exactly the
// dirty contents — the three units into a cache-line-grained NVM copy, the
// whole page otherwise — and charge the DRAM read of every byte written.
// After a crash, the recovered manager must serve the three writes.
func TestWriteDownChargesWhatItWrites(t *testing.T) {
	const unit = 256
	offs := []int{0, 1024, 4096}
	fg := Config{Policy: policy.SpitfireEager, FineGrained: true, LoadingUnit: unit}
	mini := fg
	mini.MiniPages = true
	for _, tc := range []struct {
		name  string
		cfg   Config
		tier  Tier // where the dirtied copy lives
		toNVM bool // write-down lands in the NVM copy, else on SSD
		want  int64
	}{
		{"whole page with NVM copy", Config{Policy: policy.SpitfireEager}, TierDRAM, true, PageSize},
		{"whole page without NVM copy", Config{Policy: policy.Policy{Dr: 1, Dw: 1}}, TierDRAM, false, PageSize},
		{"cache-line-grained", fg, TierDRAM, true, 3 * unit},
		{"mini page", mini, TierMini, true, 3 * unit},
	} {
		for _, how := range []string{"checkpoint", "eviction"} {
			t.Run(tc.name+"/"+how, func(t *testing.T) {
				cfg := tc.cfg
				cfg.DRAMBytes = 8 * PageSize
				cfg.NVMBytes = 32 * nvmFrameSlot
				cfg.PMem = pmem.New(pmem.Options{Size: cfg.NVMBytes, TrackCrashes: true})
				cfg.SSD = ssd.NewMem(nil)
				charger := &readBytesCharger{}
				cfg.DRAMCharger = charger
				bm := newBM(t, cfg)
				seed(t, bm, 1)
				ctx := NewCtx(40)
				if tc.toNVM {
					intoNVM(t, bm, ctx, 0)
				}
				h, err := bm.FetchPage(ctx, 0, WriteIntent)
				if err != nil {
					t.Fatal(err)
				}
				if h.Tier() != tc.tier {
					t.Fatalf("setup: dirtied copy served from %v, want %v", h.Tier(), tc.tier)
				}
				for i, off := range offs {
					if err := h.WriteAt(ctx, off, []byte{0xD0 + byte(i)}); err != nil {
						t.Fatal(err)
					}
				}
				h.Release()

				nvmDev, ssdDev := cfg.PMem.Device(), cfg.SSD.Device()
				nvm0, ssd0, read0 := nvmDev.Stats().BytesWritten, ssdDev.Stats().BytesWritten, charger.read
				if how == "checkpoint" {
					if err := bm.FlushDirtyDRAM(ctx); err != nil {
						t.Fatalf("checkpoint: %v", err)
					}
				} else {
					evictDRAMCopy(t, bm, ctx, 0)
				}
				nvm, disk := nvmDev.Stats().BytesWritten-nvm0, ssdDev.Stats().BytesWritten-ssd0
				if !tc.toNVM {
					nvm, disk = disk, nvm
				}
				if nvm != tc.want || disk != 0 {
					t.Fatalf("wrote %d B to the expected tier and %d B to the other, want %d and 0", nvm, disk, tc.want)
				}
				if read := charger.read - read0; read != tc.want {
					t.Fatalf("charged %d B of DRAM reads for %d B written down", read, tc.want)
				}

				cfg.PMem.Crash()
				bm2, err := Recover(cfg)
				if err != nil {
					t.Fatal(err)
				}
				h, err = bm2.FetchPage(ctx, 0, ReadIntent)
				if err != nil {
					t.Fatal(err)
				}
				defer h.Release()
				got := make([]byte, 1)
				for i, off := range offs {
					if err := h.ReadAt(ctx, off, got); err != nil {
						t.Fatal(err)
					}
					if got[0] != 0xD0+byte(i) {
						t.Fatalf("after the crash byte %d reads %#x, want %#x", off, got[0], 0xD0+byte(i))
					}
				}
			})
		}
	}
}
