package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/ssd"
)

// faultBM builds a manager whose SSD device (and NVM device, when the config
// has an NVM tier) carries a fault injector, initially injecting nothing.
func faultBM(t *testing.T, cfg Config) (*BufferManager, *device.Injector, *device.Injector) {
	t.Helper()
	ssdDev := device.New(device.SSDParams)
	ssdInj := device.NewInjector(device.FaultConfig{Seed: 1})
	ssdDev.SetFaults(ssdInj)
	cfg.SSD = ssd.NewMem(ssdDev)

	var nvmInj *device.Injector
	if cfg.NVMBytes > 0 {
		nvmDev := device.New(device.NVMParams)
		nvmInj = device.NewInjector(device.FaultConfig{Seed: 2})
		nvmDev.SetFaults(nvmInj)
		cfg.PMem = pmem.New(pmem.Options{Size: cfg.NVMBytes, Device: nvmDev})
	}
	bm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bm.Close)
	return bm, ssdInj, nvmInj
}

// TestFetchSurfacesSSDReadError: an injected SSD read fault during a fetch
// miss is retried, then surfaces as a typed error instead of panicking or
// returning garbage; once the fault clears, the same fetch succeeds.
func TestFetchSurfacesSSDReadError(t *testing.T) {
	bm, ssdInj, _ := faultBM(t, Config{
		DRAMBytes: 4 * PageSize,
		Policy:    policy.Policy{Dr: 1, Dw: 1},
	})
	seed(t, bm, 2)

	ssdInj.Rearm(device.FaultConfig{Seed: 3, ReadErrProb: 1})
	ctx := NewCtx(7)
	if _, err := bm.FetchPage(ctx, 0, ReadIntent); err == nil {
		t.Fatal("fetch with a failing SSD succeeded")
	} else if !errors.Is(err, device.ErrTransient) {
		t.Fatalf("fetch error = %v, want one wrapping device.ErrTransient", err)
	}
	st := bm.Stats()
	if st.IORetries == 0 {
		t.Error("failing fetch was not retried")
	}
	if st.IOGiveUps == 0 {
		t.Error("exhausted retries were not counted as a give-up")
	}

	ssdInj.Rearm(device.FaultConfig{Seed: 3})
	h, err := bm.FetchPage(ctx, 0, ReadIntent)
	if err != nil {
		t.Fatalf("fetch after the fault cleared: %v", err)
	}
	want := make([]byte, PageSize)
	got := make([]byte, PageSize)
	marker(want, 0, 0)
	if err := h.ReadAt(ctx, 0, got); err != nil {
		t.Fatal(err)
	}
	h.Release()
	if !bytes.Equal(got, want) {
		t.Fatal("page content corrupted by the transient fault episode")
	}
}

// TestEvictionNVMWriteErrorFallsBackToSSD: when every NVM write fails
// transiently, DRAM eviction gives up on NVM admission and writes dirty
// pages straight to SSD; no data is lost and the tier is not degraded
// (transient faults never collapse the hierarchy).
func TestEvictionNVMWriteErrorFallsBackToSSD(t *testing.T) {
	const pages = 6
	bm, _, nvmInj := faultBM(t, Config{
		DRAMBytes: 2 * PageSize,
		NVMBytes:  8 * nvmFrameSlot,
		// Nr = 0 keeps fetch misses on the DRAM route; Nw = 1 makes every
		// DRAM eviction attempt NVM admission.
		Policy: policy.Policy{Dr: 1, Dw: 1, Nr: 0, Nw: 1},
	})
	seed(t, bm, pages)

	nvmInj.Rearm(device.FaultConfig{Seed: 4, WriteErrProb: 1})
	ctx := NewCtx(8)
	data := make([]byte, PageSize)
	for pid := uint64(0); pid < pages; pid++ {
		h, err := bm.FetchPage(ctx, pid, WriteIntent)
		if err != nil {
			t.Fatalf("write fetch of page %d: %v", pid, err)
		}
		marker(data, pid, 1)
		if err := h.WriteAt(ctx, 0, data); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if bm.NVMDegraded() {
		t.Fatal("transient NVM faults degraded the tier")
	}
	if st := bm.Stats(); st.IOGiveUps == 0 {
		t.Error("no NVM admission give-ups recorded")
	} else if st.DRAMToSSD == 0 {
		t.Error("no DRAM→SSD bypass writes recorded; evictions did not fall back")
	}

	// With the fault cleared, every page must read back at its latest version.
	nvmInj.Rearm(device.FaultConfig{Seed: 4})
	want := make([]byte, PageSize)
	got := make([]byte, PageSize)
	for pid := uint64(0); pid < pages; pid++ {
		h, err := bm.FetchPage(ctx, pid, ReadIntent)
		if err != nil {
			t.Fatalf("read back page %d: %v", pid, err)
		}
		marker(want, pid, 1)
		if err := h.ReadAt(ctx, 0, got); err != nil {
			t.Fatal(err)
		}
		h.Release()
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d lost its update during NVM-fault fallback", pid)
		}
	}
}

// TestPermanentNVMFailureDegrades: a permanently failed NVM device collapses
// the manager to two-tier DRAM–SSD mode — the policy is forced to
// ⟨Dr,Dw,0,0⟩ (and stays forced across SetPolicy) and the workload keeps
// running with full data integrity for everything written after the failure.
func TestPermanentNVMFailureDegrades(t *testing.T) {
	const pages = 6
	bm, _, nvmInj := faultBM(t, Config{
		DRAMBytes: 2 * PageSize,
		NVMBytes:  8 * nvmFrameSlot,
		Policy:    policy.SpitfireEager,
	})
	seed(t, bm, pages)

	// Churn everything through the healthy three-tier hierarchy first so NVM
	// holds copies when it dies.
	ctx := NewCtx(9)
	data := make([]byte, PageSize)
	for pid := uint64(0); pid < pages; pid++ {
		h, err := bm.FetchPage(ctx, pid, WriteIntent)
		if err != nil {
			t.Fatal(err)
		}
		marker(data, pid, 1)
		if err := h.WriteAt(ctx, 0, data); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}

	nvmInj.FailNow()
	// Full-page writes after the failure: fetches may hit the dead tier and
	// must fall back; the writes land in DRAM and reach SSD via eviction.
	for pid := uint64(0); pid < pages; pid++ {
		h, err := bm.FetchPage(ctx, pid, WriteIntent)
		if err != nil {
			t.Fatalf("write fetch of page %d after NVM failure: %v", pid, err)
		}
		marker(data, pid, 2)
		if err := h.WriteAt(ctx, 0, data); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}

	if !bm.NVMDegraded() {
		t.Fatal("manager did not degrade after permanent NVM failure")
	}
	if p := bm.Policy(); p.Nr != 0 || p.Nw != 0 {
		t.Fatalf("degraded policy = %+v, want Nr = Nw = 0", p)
	}
	if err := bm.SetPolicy(policy.SpitfireEager); err != nil {
		t.Fatal(err)
	}
	if p := bm.Policy(); p.Nr != 0 || p.Nw != 0 {
		t.Fatalf("SetPolicy re-enabled the dead tier: %+v", p)
	}
	if st := bm.Stats(); st.NVMDegraded != 1 {
		t.Errorf("NVMDegraded stat = %d, want 1", st.NVMDegraded)
	}

	want := make([]byte, PageSize)
	got := make([]byte, PageSize)
	for pid := uint64(0); pid < pages; pid++ {
		h, err := bm.FetchPage(ctx, pid, ReadIntent)
		if err != nil {
			t.Fatalf("two-tier read of page %d: %v", pid, err)
		}
		marker(want, pid, 2)
		if err := h.ReadAt(ctx, 0, got); err != nil {
			t.Fatal(err)
		}
		h.Release()
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d lost its post-degradation update", pid)
		}
	}
	if err := bm.CheckConsistency(); err != nil {
		t.Errorf("consistency audit after degradation: %v", err)
	}
}

// TestCleanerAllFailSurfacesInForeground: with every SSD write failing and
// only dirty DRAM frames to reclaim, the background cleaner stalls (bounded,
// no spin) and foreground allocation surfaces the typed error to the caller
// instead of hanging; clearing the fault restores service.
func TestCleanerAllFailSurfacesInForeground(t *testing.T) {
	const frames = 4
	bm, ssdInj, _ := faultBM(t, Config{
		DRAMBytes: frames * PageSize,
		Policy:    policy.Policy{Dr: 1, Dw: 1},
		Cleaner:   CleanerConfig{Enable: true},
	})
	seed(t, bm, frames+1)

	// Fail all write-backs from here on — before dirtying, so the cleaner
	// cannot sneak a frame clean while the loop below is still running.
	ssdInj.Rearm(device.FaultConfig{Seed: 5, WriteErrProb: 1})
	ctx := NewCtx(10)
	data := make([]byte, PageSize)
	for pid := uint64(0); pid < frames; pid++ {
		h, err := bm.FetchPage(ctx, pid, WriteIntent)
		if err != nil {
			t.Fatal(err)
		}
		marker(data, pid, 1)
		if err := h.WriteAt(ctx, 0, data); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}

	// Every frame is dirty and the free list is empty; demand a new frame.
	_, err := bm.FetchPage(ctx, frames, ReadIntent)
	if err == nil {
		t.Fatal("fetch succeeded with no evictable frame")
	}
	if !errors.Is(err, device.ErrTransient) {
		t.Fatalf("foreground fetch error = %v, want one wrapping device.ErrTransient", err)
	}

	// The cleaner must record stalls rather than spinning on the dead disk.
	deadline := time.Now().Add(2 * time.Second)
	for bm.Stats().CleanerStalls == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if bm.Stats().CleanerStalls == 0 {
		t.Error("cleaner recorded no stalls while all write-backs failed")
	}

	// Clear the fault: foreground allocation recovers immediately.
	ssdInj.Rearm(device.FaultConfig{Seed: 5})
	h, err := bm.FetchPage(ctx, frames, ReadIntent)
	if err != nil {
		t.Fatalf("fetch after the fault cleared: %v", err)
	}
	h.Release()
}

// fgConfig is the fine-grained-loading fault fixture: Nr = 1 sends the first
// fetch of a page into NVM, Dr = 1 migrates the second fetch up into an
// empty cache-line-grained DRAM frame whose units fault in on demand.
func fgFaultConfig() Config {
	return Config{
		DRAMBytes:   4 * PageSize,
		NVMBytes:    8 * nvmFrameSlot,
		FineGrained: true,
		LoadingUnit: 256,
		Policy:      policy.Policy{Dr: 1, Dw: 1, Nr: 1, Nw: 1},
	}
}

// fgDRAMHandle drives pid into a fine-grained DRAM frame backed by an NVM
// copy and returns the pinned handle.
func fgDRAMHandle(t *testing.T, bm *BufferManager, ctx *Ctx, pid uint64) *Handle {
	t.Helper()
	h, err := bm.FetchPage(ctx, pid, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	if h.Tier() != TierNVM {
		t.Fatalf("first fetch tier = %v, want NVM (Nr=1 miss route)", h.Tier())
	}
	h.Release()
	h, err = bm.FetchPage(ctx, pid, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	if h.Tier() != TierDRAM {
		t.Fatalf("second fetch tier = %v, want DRAM (Dr=1 fine-grained migration)", h.Tier())
	}
	return h
}

// TestFineGrainedLoadSurfacesNVMReadError: an injected NVM fault during a
// fine-grained unit fill is retried and then surfaces through Handle.ReadAt
// as a typed error — it is not absorbed silently — and residency does NOT
// advance, so the same read succeeds with correct data once the fault
// clears.
func TestFineGrainedLoadSurfacesNVMReadError(t *testing.T) {
	bm, _, nvmInj := faultBM(t, fgFaultConfig())
	seed(t, bm, 2)
	ctx := NewCtx(12)
	h := fgDRAMHandle(t, bm, ctx, 0)
	defer h.Release()

	base := bm.Stats()
	nvmInj.Rearm(device.FaultConfig{Seed: 6, ReadErrProb: 1})
	got := make([]byte, 512)
	if err := h.ReadAt(ctx, 0, got); err == nil {
		t.Fatal("fine-grained read with a failing NVM device succeeded")
	} else if !errors.Is(err, device.ErrTransient) {
		t.Fatalf("ReadAt error = %v, want one wrapping device.ErrTransient", err)
	}
	st := bm.Stats()
	if st.IORetries == base.IORetries {
		t.Error("failing unit fill was not retried")
	}
	if st.FGUnitLoads != base.FGUnitLoads {
		t.Errorf("residency advanced on a failed fill: FGUnitLoads %d -> %d",
			base.FGUnitLoads, st.FGUnitLoads)
	}
	if bm.NVMDegraded() {
		t.Fatal("transient unit-fill faults degraded the NVM tier")
	}

	nvmInj.Rearm(device.FaultConfig{Seed: 6})
	if err := h.ReadAt(ctx, 0, got); err != nil {
		t.Fatalf("read after the fault cleared: %v", err)
	}
	want := make([]byte, PageSize)
	marker(want, 0, 0)
	if !bytes.Equal(got, want[:512]) {
		t.Fatal("unit contents corrupted by the transient fault episode")
	}
	if loads := bm.Stats().FGUnitLoads; loads != base.FGUnitLoads+2 {
		t.Errorf("FGUnitLoads = %d, want %d (two 256 B units)", loads, base.FGUnitLoads+2)
	}
}

// TestFineGrainedOverwriteSkipsFaultingNVM: a write that fully covers its
// units needs no NVM fill, so it must succeed even while every NVM read
// fails; a partial write of a non-resident unit needs the fill and must
// surface the fault instead. After the episode both the overwrite and the
// preserved bytes are intact.
func TestFineGrainedOverwriteSkipsFaultingNVM(t *testing.T) {
	bm, _, nvmInj := faultBM(t, fgFaultConfig())
	seed(t, bm, 2)
	ctx := NewCtx(13)
	h := fgDRAMHandle(t, bm, ctx, 0)
	defer h.Release()

	nvmInj.Rearm(device.FaultConfig{Seed: 7, ReadErrProb: 1})
	fresh := make([]byte, 256)
	for i := range fresh {
		fresh[i] = 0xAB
	}
	// Unit-aligned full overwrite of unit 1: no fill, must succeed.
	if err := h.WriteAt(ctx, 256, fresh); err != nil {
		t.Fatalf("fully-overwriting write hit the faulting NVM device: %v", err)
	}
	// Partial write into non-resident unit 0: needs a fill, must fail typed.
	if err := h.WriteAt(ctx, 10, fresh[:100]); err == nil {
		t.Fatal("partial write with a failing NVM device succeeded")
	} else if !errors.Is(err, device.ErrTransient) {
		t.Fatalf("WriteAt error = %v, want one wrapping device.ErrTransient", err)
	}

	nvmInj.Rearm(device.FaultConfig{Seed: 7})
	got := make([]byte, 512)
	if err := h.ReadAt(ctx, 0, got); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, PageSize)
	marker(want, 0, 0)
	if !bytes.Equal(got[:256], want[:256]) {
		t.Fatal("unit 0 lost its seeded bytes across the fault episode")
	}
	if !bytes.Equal(got[256:512], fresh) {
		t.Fatal("fully-overwritten unit lost the write that succeeded during the fault")
	}
}

// TestFineGrainedPermanentNVMFaultDegrades: a permanent NVM fault during a
// unit fill degrades the tier (collapse to DRAM-SSD) exactly like the
// whole-page paths do, instead of retrying forever.
func TestFineGrainedPermanentNVMFaultDegrades(t *testing.T) {
	bm, _, nvmInj := faultBM(t, fgFaultConfig())
	seed(t, bm, 2)
	ctx := NewCtx(14)
	h := fgDRAMHandle(t, bm, ctx, 0)
	defer h.Release()

	nvmInj.FailNow()
	got := make([]byte, 256)
	if err := h.ReadAt(ctx, 0, got); err == nil {
		t.Fatal("fine-grained read on a dead NVM device succeeded")
	} else if !errors.Is(err, device.ErrPermanent) {
		t.Fatalf("ReadAt error = %v, want one wrapping device.ErrPermanent", err)
	}
	if !bm.NVMDegraded() {
		t.Fatal("permanent unit-fill fault did not degrade the NVM tier")
	}
}

// TestCloseConcurrentAndIdempotent: Close is safe under concurrent callers,
// repeatable, and leaves the manager usable for inline-eviction service.
func TestCloseConcurrentAndIdempotent(t *testing.T) {
	bm, _, _ := faultBM(t, Config{
		DRAMBytes: 4 * PageSize,
		NVMBytes:  8 * nvmFrameSlot,
		Policy:    policy.SpitfireEager,
		Cleaner:   CleanerConfig{Enable: true},
	})
	seed(t, bm, 2)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bm.Close()
		}()
	}
	wg.Wait()
	bm.Close() // once more, for idempotence

	// The manager still serves fetches via inline eviction after Close.
	ctx := NewCtx(11)
	h, err := bm.FetchPage(ctx, 0, ReadIntent)
	if err != nil {
		t.Fatalf("fetch after Close: %v", err)
	}
	h.Release()
}

// TestCloseNilAndFailedRecover: Close on a nil receiver (what a failed
// Recover returns) must be a no-op, so callers can unconditionally
// defer-Close whatever Recover handed back.
func TestCloseNilAndFailedRecover(t *testing.T) {
	var nilBM *BufferManager
	nilBM.Close()

	bm, err := Recover(Config{DRAMBytes: 8 * PageSize}) // no PMem arena: must fail
	if err == nil {
		t.Fatal("Recover without a surviving arena succeeded")
	}
	bm.Close()
}
