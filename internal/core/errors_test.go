package core

import (
	"testing"

	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/policy"
)

func TestNVMOnlyRejectsTinyArena(t *testing.T) {
	if _, err := New(Config{NVMBytes: 100, Policy: policy.SpitfireEager}); err == nil {
		t.Fatal("sub-frame NVM budget accepted")
	}
	// A provided arena smaller than NVMBytes shrinks the pool instead of
	// failing.
	pm := pmem.New(pmem.Options{Size: 2 * nvmFrameSlot})
	bm, err := New(Config{NVMBytes: 10 * nvmFrameSlot, Policy: policy.SpitfireEager, PMem: pm})
	if err != nil {
		t.Fatal(err)
	}
	if bm.NVMFrames() != 2 {
		t.Fatalf("NVM frames = %d, want clamped to 2", bm.NVMFrames())
	}
	// An arena with no room at all fails.
	tiny := pmem.New(pmem.Options{Size: 10})
	if _, err := New(Config{NVMBytes: nvmFrameSlot, Policy: policy.SpitfireEager, PMem: tiny}); err == nil {
		t.Fatal("frameless arena accepted")
	}
}

func TestAdmissionQueueBuiltWithNVMTier(t *testing.T) {
	// The queue exists from construction whenever the NVM tier does: queue
	// mode reads it for every admission, and SetPolicy may switch to it.
	bm := newBM(t, Config{Policy: policy.SpitfireEager})
	if bm.admQueue == nil {
		t.Fatal("NVM-backed manager built without an admission queue")
	}
	if err := bm.SetPolicy(policy.Hymem); err != nil {
		t.Fatal(err)
	}
	if bm.admQueue == nil {
		t.Fatal("admission queue lost across a policy switch")
	}
	// No NVM tier → no queue to feed.
	dramOnly := newBM(t, Config{DRAMBytes: 2 * PageSize, Policy: policy.Policy{Dr: 1, Dw: 1}})
	if dramOnly.admQueue != nil {
		t.Fatal("DRAM-only manager built an admission queue")
	}
}

func TestFrameCounts(t *testing.T) {
	bm := newBM(t, Config{
		DRAMBytes: 4 * PageSize,
		NVMBytes:  8 * nvmFrameSlot,
		Policy:    policy.SpitfireEager,
	})
	if bm.DRAMFrames() != 4 || bm.NVMFrames() != 8 {
		t.Fatalf("frames = %d/%d", bm.DRAMFrames(), bm.NVMFrames())
	}
	nvmOnly := newBM(t, Config{NVMBytes: 2 * nvmFrameSlot, Policy: policy.SpitfireEager})
	if nvmOnly.DRAMFrames() != 0 {
		t.Fatal("DRAM frames nonzero for NVM-only hierarchy")
	}
	if nvmOnly.PMem() == nil {
		t.Fatal("PMem accessor nil for NVM hierarchy")
	}
	dramOnly := newBM(t, Config{DRAMBytes: 2 * PageSize, Policy: policy.Policy{Dr: 1, Dw: 1}})
	if dramOnly.PMem() != nil {
		t.Fatal("PMem accessor non-nil for DRAM-only hierarchy")
	}
}

func TestIntentSelectsDwOnNVMHit(t *testing.T) {
	// Dr=0, Dw=1: reads stay on NVM, writes migrate up.
	bm := newBM(t, Config{Policy: policy.Policy{Dr: 0, Dw: 1, Nr: 1, Nw: 1}})
	seed(t, bm, 1)
	ctx := NewCtx(60)
	h, err := bm.FetchPage(ctx, 0, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	if h.Tier() != TierNVM {
		t.Fatalf("read served from %v", h.Tier())
	}
	h.Release()
	h, err = bm.FetchPage(ctx, 0, WriteIntent)
	if err != nil {
		t.Fatal(err)
	}
	if h.Tier() != TierDRAM {
		t.Fatalf("write-intent fetch served from %v, want DRAM (Dw=1)", h.Tier())
	}
	h.Release()
}

func TestMaterializePageIdempotent(t *testing.T) {
	bm := newBM(t, Config{Policy: policy.SpitfireEager})
	ctx := NewCtx(61)
	h, err := bm.MaterializePage(ctx, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WriteAt(ctx, 0, []byte{0x42}); err != nil {
		t.Fatal(err)
	}
	h.Release()
	// Second materialize must fetch the existing page, not zero it.
	h, err = bm.MaterializePage(ctx, 9)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if err := h.ReadAt(ctx, 0, got); err != nil {
		t.Fatal(err)
	}
	h.Release()
	if got[0] != 0x42 {
		t.Fatal("MaterializePage zeroed an existing page")
	}
	if bm.NextPageID() < 10 {
		t.Fatalf("allocator not advanced past materialized pid: %d", bm.NextPageID())
	}
}

// TestFlushFailsOnPinnedPage: a pin held across a checkpoint breaks its
// quiescence contract, so the flush reports the page instead of waiting on
// it forever.
func TestFlushFailsOnPinnedPage(t *testing.T) {
	bm := newBM(t, Config{
		DRAMBytes: 4 * PageSize,
		NVMBytes:  8 * nvmFrameSlot,
		Policy:    policy.Policy{Dr: 1, Dw: 1, Nr: 0, Nw: 0},
	})
	seed(t, bm, 1)
	ctx := NewCtx(62)
	h, err := bm.FetchPage(ctx, 0, WriteIntent)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WriteAt(ctx, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := bm.FlushDirtyDRAM(ctx); err == nil {
		t.Fatal("flush of a pinned dirty page succeeded")
	}
	h.Release()
	if err := bm.FlushDirtyDRAM(ctx); err != nil {
		t.Fatalf("flush after release: %v", err)
	}
}
