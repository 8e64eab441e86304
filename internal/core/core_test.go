package core

import (
	"bytes"
	"testing"
	"time"

	"github.com/spitfire-db/spitfire/internal/policy"
)

// newBM builds a small three-tier manager for tests.
func newBM(t *testing.T, cfg Config) *BufferManager {
	t.Helper()
	if cfg.DRAMBytes == 0 && cfg.NVMBytes == 0 {
		cfg.DRAMBytes = 8 * PageSize
		cfg.NVMBytes = 32 * nvmFrameSlot
	}
	bm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

// marker fills buf with a pattern unique to (pid, version).
func marker(buf []byte, pid uint64, version byte) {
	for i := range buf {
		buf[i] = byte(pid)*31 + byte(i) + version
	}
}

// seed writes n marked pages straight to SSD.
func seed(t *testing.T, bm *BufferManager, n int) {
	t.Helper()
	ctx := NewCtx(1)
	buf := make([]byte, PageSize)
	for pid := uint64(0); pid < uint64(n); pid++ {
		marker(buf, pid, 0)
		if err := bm.SeedPage(ctx, pid, buf); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{DRAMBytes: PageSize, Policy: policy.Policy{Dr: 2}}); err == nil {
		t.Fatal("invalid policy accepted")
	}
	if _, err := New(Config{DRAMBytes: PageSize, LoadingUnit: 100}); err == nil {
		t.Fatal("non-dividing loading unit accepted")
	}
	if _, err := New(Config{DRAMBytes: PageSize, MiniPages: true}); err == nil {
		t.Fatal("MiniPages without FineGrained accepted")
	}
	if _, err := New(Config{DRAMBytes: 100}); err == nil {
		t.Fatal("sub-page DRAM budget accepted")
	}
}

func TestFetchMissingPageFails(t *testing.T) {
	bm := newBM(t, Config{Policy: policy.SpitfireEager})
	ctx := NewCtx(2)
	if _, err := bm.FetchPage(ctx, 999, ReadIntent); err == nil {
		t.Fatal("fetch of nonexistent page succeeded")
	}
}

func TestReadBackFromSSD(t *testing.T) {
	bm := newBM(t, Config{Policy: policy.SpitfireEager})
	seed(t, bm, 4)
	ctx := NewCtx(3)
	want := make([]byte, PageSize)
	got := make([]byte, PageSize)
	for pid := uint64(0); pid < 4; pid++ {
		h, err := bm.FetchPage(ctx, pid, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		marker(want, pid, 0)
		if err := h.ReadAt(ctx, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d content mismatch", pid)
		}
		h.Release()
	}
}

func TestWriteSurvivesEvictionChurn(t *testing.T) {
	// More pages than DRAM+NVM can hold: every page is repeatedly evicted
	// through NVM or straight to SSD, and every version must survive.
	const pages = 128
	bm := newBM(t, Config{
		DRAMBytes: 4 * PageSize,
		NVMBytes:  8 * nvmFrameSlot,
		Policy:    policy.SpitfireEager,
	})
	seed(t, bm, pages)
	ctx := NewCtx(4)
	data := make([]byte, PageSize)

	for pid := uint64(0); pid < pages; pid++ {
		h, err := bm.FetchPage(ctx, pid, WriteIntent)
		if err != nil {
			t.Fatal(err)
		}
		marker(data, pid, 7)
		if err := h.WriteAt(ctx, 0, data); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	// Re-read everything (forcing another full churn).
	got := make([]byte, PageSize)
	for pid := uint64(0); pid < pages; pid++ {
		h, err := bm.FetchPage(ctx, pid, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.ReadAt(ctx, 0, got); err != nil {
			t.Fatal(err)
		}
		marker(data, pid, 7)
		if !bytes.Equal(got, data) {
			t.Fatalf("page %d lost its update through eviction churn", pid)
		}
		h.Release()
	}
}

func TestLazyPolicyServesFromNVM(t *testing.T) {
	// With Dr = 0 a page resident in NVM must never migrate to DRAM.
	bm := newBM(t, Config{Policy: policy.Policy{Dr: 0, Dw: 0, Nr: 1, Nw: 1}})
	seed(t, bm, 1)
	ctx := NewCtx(5)
	for i := 0; i < 50; i++ {
		h, err := bm.FetchPage(ctx, 0, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && h.Tier() != TierNVM {
			t.Fatalf("access %d served from %v, want NVM", i, h.Tier())
		}
		h.Release()
	}
	st := bm.Stats()
	if st.NVMToDRAM != 0 {
		t.Fatalf("Dr=0 produced %d upward migrations", st.NVMToDRAM)
	}
	if st.HitNVM == 0 {
		t.Fatal("no NVM hits recorded")
	}
}

func TestEagerPolicyMigratesToDRAM(t *testing.T) {
	bm := newBM(t, Config{Policy: policy.SpitfireEager})
	seed(t, bm, 1)
	ctx := NewCtx(6)
	h, err := bm.FetchPage(ctx, 0, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	// Nr=1 put it in NVM; the second access must migrate it up (Dr=1).
	h, err = bm.FetchPage(ctx, 0, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	if h.Tier() != TierDRAM {
		t.Fatalf("eager fetch served from %v, want DRAM", h.Tier())
	}
	h.Release()
	if st := bm.Stats(); st.NVMToDRAM != 1 {
		t.Fatalf("NVMToDRAM = %d, want 1", st.NVMToDRAM)
	}
	// Inclusivity: the page is now in both buffers.
	if inc := bm.Inclusivity(); inc != 1 {
		t.Fatalf("inclusivity = %v, want 1 (single page in both buffers)", inc)
	}
}

func TestNrZeroBypassesNVM(t *testing.T) {
	bm := newBM(t, Config{Policy: policy.Policy{Dr: 1, Dw: 1, Nr: 0, Nw: 0}})
	seed(t, bm, 4)
	ctx := NewCtx(7)
	for pid := uint64(0); pid < 4; pid++ {
		h, err := bm.FetchPage(ctx, pid, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		if h.Tier() != TierDRAM {
			t.Fatalf("Nr=0 fetch served from %v, want DRAM", h.Tier())
		}
		h.Release()
	}
	st := bm.Stats()
	if st.SSDToNVM != 0 {
		t.Fatalf("Nr=0 installed %d pages in NVM", st.SSDToNVM)
	}
	if st.SSDToDRAM != 4 {
		t.Fatalf("SSDToDRAM = %d, want 4", st.SSDToDRAM)
	}
}

func TestDRAMOnlyHierarchy(t *testing.T) {
	bm := newBM(t, Config{DRAMBytes: 4 * PageSize, Policy: policy.Policy{Dr: 1, Dw: 1}})
	seed(t, bm, 16)
	ctx := NewCtx(8)
	data := make([]byte, 64)
	for pid := uint64(0); pid < 16; pid++ {
		h, err := bm.FetchPage(ctx, pid, WriteIntent)
		if err != nil {
			t.Fatal(err)
		}
		marker(data, pid, 9)
		if err := h.WriteAt(ctx, 128, data); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	got := make([]byte, 64)
	want := make([]byte, 64)
	for pid := uint64(0); pid < 16; pid++ {
		h, err := bm.FetchPage(ctx, pid, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.ReadAt(ctx, 128, got); err != nil {
			t.Fatal(err)
		}
		marker(want, pid, 9)
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d corrupted in DRAM-SSD hierarchy", pid)
		}
		h.Release()
	}
}

func TestNVMOnlyHierarchy(t *testing.T) {
	bm := newBM(t, Config{NVMBytes: 4 * nvmFrameSlot, Policy: policy.SpitfireEager})
	seed(t, bm, 16)
	ctx := NewCtx(9)
	data := []byte("nvm-direct")
	for pid := uint64(0); pid < 16; pid++ {
		h, err := bm.FetchPage(ctx, pid, WriteIntent)
		if err != nil {
			t.Fatal(err)
		}
		if h.Tier() != TierNVM {
			t.Fatalf("NVM-SSD hierarchy served from %v", h.Tier())
		}
		if err := h.WriteAt(ctx, 0, data); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	got := make([]byte, len(data))
	for pid := uint64(0); pid < 16; pid++ {
		h, err := bm.FetchPage(ctx, pid, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.ReadAt(ctx, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("page %d corrupted in NVM-SSD hierarchy", pid)
		}
		h.Release()
	}
}

func TestNewPageRoundTrip(t *testing.T) {
	bm := newBM(t, Config{Policy: policy.SpitfireEager})
	ctx := NewCtx(10)
	pid, h, err := bm.NewPage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh pages are zeroed.
	got := make([]byte, 32)
	if err := h.ReadAt(ctx, 0, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("new page not zeroed")
		}
	}
	if err := h.WriteAt(ctx, 100, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	h.Release()

	h, err = bm.FetchPage(ctx, pid, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if err := h.ReadAt(ctx, 100, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "fresh" {
		t.Fatalf("new page content = %q", buf)
	}
	h.Release()
}

func TestHandleBounds(t *testing.T) {
	bm := newBM(t, Config{Policy: policy.SpitfireEager})
	seed(t, bm, 1)
	ctx := NewCtx(11)
	h, err := bm.FetchPage(ctx, 0, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ReadAt(ctx, PageSize-1, make([]byte, 2)); err == nil {
		t.Fatal("out-of-bounds read accepted")
	}
	if err := h.WriteAt(ctx, -1, []byte{1}); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := h.ReadAt(ctx, 0, nil); err != nil {
		t.Fatal("empty read rejected")
	}
	h.Release()
	if err := h.ReadAt(ctx, 0, make([]byte, 1)); err == nil {
		t.Fatal("read through released handle accepted")
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	bm := newBM(t, Config{Policy: policy.SpitfireEager})
	seed(t, bm, 1)
	ctx := NewCtx(12)
	h, err := bm.FetchPage(ctx, 0, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	h.Release()
}

func TestAdmissionQueuePolicy(t *testing.T) {
	// HyMem mode: a dirty page evicted from DRAM bypasses NVM on its first
	// eviction and is admitted on the second.
	bm := newBM(t, Config{
		DRAMBytes: 2 * PageSize,
		NVMBytes:  16 * nvmFrameSlot,
		Policy:    policy.Hymem,
	})
	seed(t, bm, 8)
	ctx := NewCtx(13)

	dirtyAll := func() {
		for pid := uint64(0); pid < 8; pid++ {
			h, err := bm.FetchPage(ctx, pid, WriteIntent)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.WriteAt(ctx, 0, []byte{byte(pid)}); err != nil {
				t.Fatal(err)
			}
			h.Release()
		}
	}
	dirtyAll()
	st := bm.Stats()
	if st.DRAMToNVM != 0 {
		t.Fatalf("first-eviction admissions = %d, want 0 (queue denies)", st.DRAMToNVM)
	}
	if st.DRAMToSSD == 0 {
		t.Fatal("no DRAM→SSD write-backs on denied admission")
	}
	dirtyAll()
	if st := bm.Stats(); st.DRAMToNVM == 0 {
		t.Fatal("second-eviction admissions = 0, want > 0 (queue admits)")
	}
}

func TestSetPolicySwitchesBehavior(t *testing.T) {
	bm := newBM(t, Config{Policy: policy.Policy{Dr: 0, Dw: 0, Nr: 1, Nw: 1}})
	seed(t, bm, 1)
	ctx := NewCtx(14)
	h, _ := bm.FetchPage(ctx, 0, ReadIntent)
	h.Release()
	if err := bm.SetPolicy(policy.SpitfireEager); err != nil {
		t.Fatal(err)
	}
	h, err := bm.FetchPage(ctx, 0, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	if h.Tier() != TierDRAM {
		t.Fatalf("after eager switch, fetch served from %v", h.Tier())
	}
	h.Release()
	if err := bm.SetPolicy(policy.Policy{Dr: 5}); err == nil {
		t.Fatal("invalid policy accepted by SetPolicy")
	}
}

func TestInclusivityEmpty(t *testing.T) {
	bm := newBM(t, Config{Policy: policy.SpitfireEager})
	if inc := bm.Inclusivity(); inc != 0 {
		t.Fatalf("inclusivity of empty manager = %v", inc)
	}
}

func TestFlushDirtyDRAM(t *testing.T) {
	bm := newBM(t, Config{
		DRAMBytes: 8 * PageSize,
		NVMBytes:  8 * nvmFrameSlot,
		Policy:    policy.Policy{Dr: 1, Dw: 1, Nr: 0, Nw: 0},
	})
	seed(t, bm, 4)
	ctx := NewCtx(15)
	for pid := uint64(0); pid < 4; pid++ {
		h, _ := bm.FetchPage(ctx, pid, WriteIntent)
		if err := h.WriteAt(ctx, 0, []byte{0xEE}); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if err := bm.FlushDirtyDRAM(ctx); err != nil {
		t.Fatal(err)
	}
	if st := bm.Stats(); st.FlushedDRAMPages != 4 {
		t.Fatalf("flushed %d pages, want 4", st.FlushedDRAMPages)
	}
	// With Nr=0/Nw=0 the pages had no NVM copies, so they went to SSD:
	// the SSD image must now carry the update.
	buf := make([]byte, PageSize)
	if err := bm.Disk().ReadPage(ctx.Clock, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xEE {
		t.Fatal("flush did not reach SSD")
	}
}

// TestFlushWaitsOutBusyPage: a checkpoint that meets a dirty page whose
// latchD another thread holds, as the cleaner does mid-evict, waits for it
// and flushes the page.
func TestFlushWaitsOutBusyPage(t *testing.T) {
	bm := newBM(t, Config{
		DRAMBytes: 4 * PageSize,
		NVMBytes:  8 * nvmFrameSlot,
		Policy:    policy.Policy{Dr: 1, Dw: 1, Nr: 0, Nw: 0},
	})
	seed(t, bm, 1)
	ctx := NewCtx(16)
	h, err := bm.FetchPage(ctx, 0, WriteIntent)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WriteAt(ctx, 0, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	h.Release()
	d := bm.descriptorFor(0)
	held := make(chan struct{})
	go func() {
		d.lockD()
		close(held)
		time.Sleep(5 * time.Millisecond)
		d.unlockD()
	}()
	<-held
	if err := bm.FlushDirtyDRAM(ctx); err != nil {
		t.Fatal(err)
	}
	if v := d.load().dramFrame; v == noFrame || bm.dram.meta[v].dirty.Load() {
		t.Fatalf("page not resident and clean after the flush (frame %d)", v)
	}
	if st := bm.Stats(); st.FlushedDRAMPages != 1 {
		t.Fatalf("flushed %d pages, want 1", st.FlushedDRAMPages)
	}
}

// TestTheoreticalMigrationProbability reproduces the §3.5 analysis: after N
// read requests, the probability that a page has been brought into DRAM is
// approximately 1-(1-Dr)^N. We estimate it over many independent pages.
func TestTheoreticalMigrationProbability(t *testing.T) {
	const (
		dr     = 0.1
		reads  = 10
		trials = 400
	)
	bm := newBM(t, Config{
		DRAMBytes: 512 * PageSize, // large enough that nothing evicts
		NVMBytes:  512 * nvmFrameSlot,
		Policy:    policy.Policy{Dr: dr, Dw: dr, Nr: 1, Nw: 1},
	})
	seed(t, bm, trials)
	ctx := NewCtx(77)

	inDRAM := 0
	for pid := uint64(0); pid < trials; pid++ {
		migrated := false
		for r := 0; r < reads; r++ {
			h, err := bm.FetchPage(ctx, pid, ReadIntent)
			if err != nil {
				t.Fatal(err)
			}
			if h.Tier() == TierDRAM {
				migrated = true
			}
			h.Release()
		}
		if migrated {
			inDRAM++
		}
	}
	got := float64(inDRAM) / trials
	// First fetch installs in NVM (Nr=1) and serves from there, so the
	// page sees reads-1 = 9 migration trials: 1-(0.9)^9 = 0.613.
	want := 1 - pow(1-dr, reads-1)
	if got < want-0.08 || got > want+0.08 {
		t.Fatalf("P(migrated after %d reads) = %.3f, want ~%.3f (§3.5)", reads, got, want)
	}
}

func pow(b float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= b
	}
	return out
}
