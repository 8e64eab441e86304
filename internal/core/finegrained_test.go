package core

import (
	"bytes"
	"testing"

	"github.com/spitfire-db/spitfire/internal/policy"
)

func fgConfig(mini bool) Config {
	return Config{
		DRAMBytes:   8 * PageSize,
		NVMBytes:    32 * nvmFrameSlot,
		Policy:      policy.SpitfireEager,
		FineGrained: true,
		LoadingUnit: 256,
		MiniPages:   mini,
	}
}

// intoNVM gets page pid resident in NVM only (fetch once with Nr=1, Dr
// irrelevant because first fetch installs in NVM and serves from there).
func intoNVM(t *testing.T, bm *BufferManager, ctx *Ctx, pid uint64) {
	t.Helper()
	h, err := bm.FetchPage(ctx, pid, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	if h.Tier() != TierNVM {
		t.Fatalf("setup: first fetch served from %v, want NVM", h.Tier())
	}
	h.Release()
}

func TestFineGrainedLoadsOnlyTouchedUnits(t *testing.T) {
	bm := newBM(t, fgConfig(false))
	seed(t, bm, 1)
	ctx := NewCtx(20)
	intoNVM(t, bm, ctx, 0)

	// Second fetch migrates up as a cache-line-grained page.
	h, err := bm.FetchPage(ctx, 0, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	if h.Tier() != TierDRAM {
		t.Fatalf("served from %v, want DRAM", h.Tier())
	}
	buf := make([]byte, 64)
	if err := h.ReadAt(ctx, 1000, buf); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, PageSize)
	marker(want, 0, 0)
	if !bytes.Equal(buf, want[1000:1064]) {
		t.Fatal("fine-grained read returned wrong bytes")
	}
	h.Release()

	st := bm.Stats()
	// A 64-byte read at offset 1000 spans at most two 256-byte units.
	if st.FGUnitLoads == 0 || st.FGUnitLoads > 2 {
		t.Fatalf("unit loads = %d, want 1-2", st.FGUnitLoads)
	}
}

func TestFineGrainedWriteBack(t *testing.T) {
	bm := newBM(t, fgConfig(false))
	seed(t, bm, 1)
	ctx := NewCtx(21)
	intoNVM(t, bm, ctx, 0)

	h, err := bm.FetchPage(ctx, 0, WriteIntent)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WriteAt(ctx, 512, []byte("grained-update")); err != nil {
		t.Fatal(err)
	}
	h.Release()

	// Flush the dirty units down and verify via a lazy (NVM-direct) read.
	if skipped, err := bm.FlushDirtyDRAM(ctx); err != nil || skipped != 0 {
		t.Fatalf("flush: skipped=%d err=%v", skipped, err)
	}
	if err := bm.SetPolicy(policy.Policy{Dr: 0, Dw: 0, Nr: 1, Nw: 1}); err != nil {
		t.Fatal(err)
	}
	// Evict the DRAM copy path is already exercised by flush; read directly
	// from the NVM copy. Need a fresh manager view: fetch with Dr=0 still
	// prefers the DRAM copy, so read through the NVM payload directly.
	d := bm.descriptorFor(0)
	loc := d.load()
	if loc.nvmFrame == noFrame {
		t.Fatal("page lost its NVM copy")
	}
	got := make([]byte, 14)
	bm.nvm.readPayload(ctx.Clock, loc.nvmFrame, 512, got)
	if string(got) != "grained-update" {
		t.Fatalf("NVM copy holds %q after flush", got)
	}
}

func TestFineGrainedPartialUnitWriteLoadsUnit(t *testing.T) {
	bm := newBM(t, fgConfig(false))
	seed(t, bm, 1)
	ctx := NewCtx(22)
	intoNVM(t, bm, ctx, 0)

	h, err := bm.FetchPage(ctx, 0, WriteIntent)
	if err != nil {
		t.Fatal(err)
	}
	// Write 4 bytes in the middle of a unit: the unit's other bytes must
	// be preserved from the NVM copy.
	if err := h.WriteAt(ctx, 300, []byte("ABCD")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 256)
	if err := h.ReadAt(ctx, 256, got); err != nil {
		t.Fatal(err)
	}
	h.Release()
	want := make([]byte, PageSize)
	marker(want, 0, 0)
	copy(want[300:304], "ABCD")
	if !bytes.Equal(got, want[256:512]) {
		t.Fatal("partial-unit write corrupted surrounding bytes")
	}
}

func TestMiniPagePromotion(t *testing.T) {
	bm := newBM(t, fgConfig(true))
	seed(t, bm, 1)
	ctx := NewCtx(23)
	intoNVM(t, bm, ctx, 0)

	h, err := bm.FetchPage(ctx, 0, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	if h.Tier() != TierMini {
		t.Fatalf("migrated page served from %v, want mini frame", h.Tier())
	}
	// Touch 17 distinct units: the 17th overflows the 16-slot directory
	// and promotes the page to a full frame.
	buf := make([]byte, 8)
	for u := 0; u < miniSlots+1; u++ {
		if err := h.ReadAt(ctx, u*256, buf); err != nil {
			t.Fatal(err)
		}
	}
	if h.Tier() != TierDRAM {
		t.Fatalf("after overflow handle is %v, want DRAM (promoted)", h.Tier())
	}
	want := make([]byte, PageSize)
	marker(want, 0, 0)
	got := make([]byte, 256)
	// Every previously loaded unit must carry correct bytes post-promotion.
	for u := 0; u < miniSlots+1; u++ {
		if err := h.ReadAt(ctx, u*256, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[u*256:(u+1)*256]) {
			t.Fatalf("unit %d corrupted by promotion", u)
		}
	}
	h.Release()
	if st := bm.Stats(); st.MiniPromotions != 1 {
		t.Fatalf("promotions = %d, want 1", st.MiniPromotions)
	}
}

func TestMiniPageDirtySlotsSurviveEviction(t *testing.T) {
	bm := newBM(t, Config{
		DRAMBytes:   8 * PageSize, // a 4-frame mini arena: one eighth is one page of 4 KB slots
		NVMBytes:    32 * nvmFrameSlot,
		Policy:      policy.SpitfireEager,
		FineGrained: true,
		LoadingUnit: 256,
		MiniPages:   true,
	})
	const pages = 16
	seed(t, bm, pages)
	ctx := NewCtx(24)
	for pid := uint64(0); pid < pages; pid++ {
		intoNVM(t, bm, ctx, pid)
	}
	// Dirty one unit of each page through mini frames, churning the small
	// mini arena so evictions write the dirty slots back to NVM.
	for pid := uint64(0); pid < pages; pid++ {
		h, err := bm.FetchPage(ctx, pid, WriteIntent)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WriteAt(ctx, 512, []byte{0xAB, byte(pid)}); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	got := make([]byte, 2)
	for pid := uint64(0); pid < pages; pid++ {
		h, err := bm.FetchPage(ctx, pid, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.ReadAt(ctx, 512, got); err != nil {
			t.Fatal(err)
		}
		h.Release()
		if got[0] != 0xAB || got[1] != byte(pid) {
			t.Fatalf("page %d dirty mini slot lost: %v", pid, got)
		}
	}
}

func TestLoadingUnitSweepChangesTraffic(t *testing.T) {
	// Larger loading units move more bytes per faulted unit; at 64 B the
	// NVM device still transfers 256 B media blocks (I/O amplification,
	// the Figure 11 effect).
	traffic := func(unit int) int64 {
		cfg := fgConfig(false)
		cfg.LoadingUnit = unit
		bm := newBM(t, cfg)
		seed(t, bm, 1)
		ctx := NewCtx(25)
		intoNVM(t, bm, ctx, 0)
		bm.PMem().Device().ResetStats()
		h, err := bm.FetchPage(ctx, 0, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		// Touch 8 scattered spots.
		for i := 0; i < 8; i++ {
			if err := h.ReadAt(ctx, i*2048, buf); err != nil {
				t.Fatal(err)
			}
		}
		h.Release()
		return bm.PMem().Device().Stats().BytesRead
	}
	t64, t256, t4096 := traffic(64), traffic(256), traffic(4096)
	if t64 != t256 {
		t.Fatalf("64 B and 256 B units should cost the same media traffic (got %d vs %d)", t64, t256)
	}
	if t4096 <= t256 {
		t.Fatalf("4 KB units should move more media bytes (%d vs %d)", t4096, t256)
	}
}
