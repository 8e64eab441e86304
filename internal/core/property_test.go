package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/ssd"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// TestQuickShadowStore is the buffer manager's black-box property test:
// any single-threaded sequence of reads and writes over any policy must
// behave exactly like a flat byte array, regardless of which tier serves
// each access or how often pages migrate, evict or survive a restart. After
// every operation each buffered copy's write-back mask must cover every unit
// in which the copy differs from SSD (checkDiffMasks), and once every copy
// is evicted SSD must hold the array.
func TestQuickShadowStore(t *testing.T) {
	type op struct {
		Page  uint8 // mod pages
		Off   uint16
		Len   uint8
		Write bool
		Fill  byte
		// PolicySwitch rotates through preset policies mid-sequence.
		PolicySwitch bool
		// Restart (one op in 16) checkpoints, drops the manager, loses
		// power (pmem.Crash) and recovers a new one on the surviving NVM
		// arena and SSD.
		Restart uint8
	}
	policies := []policy.Policy{
		policy.SpitfireLazy,
		policy.SpitfireEager,
		policy.Hymem,
		{Dr: 0.5, Dw: 0.5, Nr: 0.5, Nw: 0.5},
		{Dr: 0, Dw: 0, Nr: 0, Nw: 0},
	}
	const pages = 12

	run := func(t *testing.T, ops []op, fineGrained bool, polIdx int) bool {
		cfg := Config{
			DRAMBytes: 3 * PageSize,
			NVMBytes:  5 * nvmFrameSlot,
			Policy:    policies[polIdx],
			PMem:      pmem.New(pmem.Options{Size: 5 * nvmFrameSlot, TrackCrashes: true}),
			SSD:       ssd.NewMem(nil),
		}
		if fineGrained {
			cfg.FineGrained = true
			cfg.LoadingUnit = 128
		}
		bm, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { bm.Close() }()
		ctx := NewCtx(77)
		shadow := make([][]byte, pages)
		zero := make([]byte, PageSize)
		for pid := range shadow {
			shadow[pid] = make([]byte, PageSize)
			if err := bm.SeedPage(ctx, uint64(pid), zero); err != nil {
				t.Fatal(err)
			}
		}
		scratch := make([]byte, 256)
		for _, o := range ops {
			if o.PolicySwitch {
				polIdx = (polIdx + 1) % len(policies)
				if err := bm.SetPolicy(policies[polIdx]); err != nil {
					t.Fatal(err)
				}
			}
			if o.Restart < 16 {
				if err := bm.FlushDirtyDRAM(ctx); err != nil {
					t.Fatal(err)
				}
				bm.Close()
				cfg.PMem.Crash()
				if bm, err = Recover(cfg); err != nil {
					t.Fatal(err)
				}
				if err := bm.SetPolicy(policies[polIdx]); err != nil {
					t.Fatal(err)
				}
			}
			pid := uint64(o.Page) % pages
			off := int(o.Off) % PageSize
			n := int(o.Len)
			if off+n > PageSize {
				n = PageSize - off
			}
			if o.Write {
				h, err := bm.FetchPage(ctx, pid, WriteIntent)
				if err != nil {
					t.Fatal(err)
				}
				data := scratch[:n]
				for i := range data {
					data[i] = o.Fill + byte(i)
				}
				if err := h.WriteAt(ctx, off, data); err != nil {
					t.Fatal(err)
				}
				h.Release()
				copy(shadow[pid][off:off+n], data)
			} else {
				h, err := bm.FetchPage(ctx, pid, ReadIntent)
				if err != nil {
					t.Fatal(err)
				}
				got := scratch[:n]
				if err := h.ReadAt(ctx, off, got); err != nil {
					t.Fatal(err)
				}
				h.Release()
				if !bytes.Equal(got, shadow[pid][off:off+n]) {
					t.Logf("page %d [%d, %d) reads back wrong", pid, off, off+n)
					return false
				}
			}
			if err := checkDiffMasks(bm); err != nil {
				t.Log(err)
				return false
			}
			if err := bm.CheckConsistency(); err != nil {
				t.Log(err)
				return false
			}
		}
		// Final sweep: every page must match its shadow in full.
		full := make([]byte, PageSize)
		for pid := range shadow {
			h, err := bm.FetchPage(ctx, uint64(pid), ReadIntent)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.ReadAt(ctx, 0, full); err != nil {
				t.Fatal(err)
			}
			h.Release()
			if !bytes.Equal(full, shadow[pid]) {
				t.Logf("page %d reads back wrong", pid)
				return false
			}
		}
		// Drain both buffers: SSD must now hold every page's shadow.
		drainToSSD(t, bm, ctx)
		for pid := range shadow {
			if err := bm.disk.ReadPage(ctx.Clock, uint64(pid), full); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(full, shadow[pid]) {
				t.Logf("page %d on SSD differs from its shadow after the drain", pid)
				return false
			}
		}
		return true
	}
	for _, fineGrained := range []bool{false, true} {
		for polIdx, pol := range policies {
			t.Run(fmt.Sprintf("fine-grained=%v/%v", fineGrained, pol), func(t *testing.T) {
				f := func(ops []op) bool { return run(t, ops, fineGrained, polIdx) }
				if err := quick.Check(f, &quick.Config{MaxCount: 16}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// checkDiffMasks checks the write-back mask of every buffered copy at a
// quiescent point: in each DRAM full frame and NVM frame, every unit whose
// bit is clear equals the page's SSD image, which it reads through Lend on a
// throwaway clock. Fine-grained frames must carry every bit. A lent frame
// must be lent the store's own array for its page, and a lent NVM frame's
// mask word must equal its mask, which names exactly the units its arena
// holds.
func checkDiffMasks(bm *BufferManager) error {
	check := func(tier string, m *frameMeta, page []byte) error {
		pid, diff := m.pid.Load(), m.diff.Load()
		img, err := bm.disk.Lend(vclock.New(), pid)
		if err != nil {
			if diff != ssd.AllUnits || m.lent.Load() != nil {
				return fmt.Errorf("page %d: %s copy of a page SSD cannot lend (%v) has mask %#x, lent %v",
					pid, tier, err, diff, m.lent.Load() != nil)
			}
			return nil
		}
		if l := m.lent.Load(); l != nil && &l[0] != &img[0] {
			return fmt.Errorf("page %d: lent %s copy holds a page that is not the store's", pid, tier)
		}
		for u := 0; u < 64; u++ {
			lo, hi := u*ssd.UnitSize, (u+1)*ssd.UnitSize
			if diff&(1<<u) == 0 && !bytes.Equal(page[lo:hi], img[lo:hi]) {
				return fmt.Errorf("page %d: %s copy differs from SSD in unit %d, which its mask %#x leaves clear", pid, tier, u, diff)
			}
		}
		return nil
	}
	for i := range bm.dram.meta {
		m := &bm.dram.meta[i]
		if m.pid.Load() == InvalidPageID {
			continue
		}
		if m.fg.Load() != nil {
			if diff := m.diff.Load(); diff != ssd.AllUnits {
				return fmt.Errorf("page %d: fine-grained DRAM copy has mask %#x, want every bit", m.pid.Load(), diff)
			}
			continue
		}
		page := make([]byte, PageSize)
		bm.dram.read(int32(i), 0, page)
		if err := check("DRAM", m, page); err != nil {
			return err
		}
	}
	for i := range bm.nvm.meta {
		m := &bm.nvm.meta[i]
		if m.pid.Load() == InvalidPageID {
			continue
		}
		word := bm.nvm.readWord(int32(i))
		if m.lent.Load() != nil && word != m.diff.Load() || m.lent.Load() == nil && word != ssd.AllUnits {
			return fmt.Errorf("page %d: NVM copy (lent %v) has mask word %#x, mask %#x",
				m.pid.Load(), m.lent.Load() != nil, word, m.diff.Load())
		}
		page := make([]byte, PageSize)
		bm.nvm.copyOut(int32(i), 0, page)
		if err := check("NVM", m, page); err != nil {
			return err
		}
	}
	return nil
}

// drainToSSD evicts every buffered copy, DRAM before NVM, so each page's
// newest image ends on SSD. The caller is single-threaded and holds no pin.
func drainToSSD(t *testing.T, bm *BufferManager, ctx *Ctx) {
	t.Helper()
	pools := []*basePool{&bm.dram.basePool, &bm.nvm.basePool}
	for _, p := range pools {
		for i := range p.meta {
			if p.meta[i].pid.Load() != InvalidPageID {
				evictCopy(t, p, ctx, int32(i))
			}
		}
	}
}

// faultStore injects write failures into an inner SSD store. It wraps both
// write methods: the manager writes back through WriteUnits.
type faultStore struct {
	ssd.Store
	failWrites bool
}

var errInjected = errors.New("injected SSD failure")

func (f *faultStore) WritePage(c *vclock.Clock, pid uint64, buf []byte) error {
	if f.failWrites {
		return errInjected
	}
	return f.Store.WritePage(c, pid, buf)
}

func (f *faultStore) WriteUnits(c *vclock.Clock, pid uint64, buf []byte, units uint64) error {
	if f.failWrites {
		return errInjected
	}
	return f.Store.WriteUnits(c, pid, buf, units)
}

func TestSSDWriteFailureDoesNotLosePages(t *testing.T) {
	// When SSD writes fail, evictions that need them must fail too — and
	// the victim page must remain intact and reachable. Shorten the
	// allocator's patience so the expected failure is fast.
	old := allocDeadline
	allocDeadline = 50 * time.Millisecond
	defer func() { allocDeadline = old }()
	fs := &faultStore{Store: ssd.NewMem(nil)}
	bm, err := New(Config{
		DRAMBytes: 2 * PageSize,
		Policy:    policy.Policy{Dr: 1, Dw: 1}, // DRAM-SSD only
		SSD:       fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(5)
	buf := make([]byte, PageSize)
	for pid := uint64(0); pid < 4; pid++ {
		marker(buf, pid, 0)
		if err := bm.SeedPage(ctx, pid, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Dirty both DRAM frames.
	for pid := uint64(0); pid < 2; pid++ {
		h, err := bm.FetchPage(ctx, pid, WriteIntent)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WriteAt(ctx, 0, []byte{0xAA}); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	fs.failWrites = true
	// Fetching new pages requires evicting a dirty page, whose write-back
	// now fails: the fetch must error out rather than drop data.
	if _, err := bm.FetchPage(ctx, 3, ReadIntent); err == nil {
		t.Fatal("fetch succeeded despite uncompletable eviction")
	}
	fs.failWrites = false
	// Everything recovers once the device heals.
	h, err := bm.FetchPage(ctx, 3, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	// The dirtied pages kept their updates.
	got := make([]byte, 1)
	for pid := uint64(0); pid < 2; pid++ {
		h, err := bm.FetchPage(ctx, pid, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.ReadAt(ctx, 0, got); err != nil {
			t.Fatal(err)
		}
		h.Release()
		if got[0] != 0xAA {
			t.Fatalf("page %d lost its update across failed eviction", pid)
		}
	}
}

func TestMemoryModeCharger(t *testing.T) {
	// A custom MemCharger must see every DRAM-buffer access with arena
	// offsets.
	rec := &recordingCharger{}
	bm, err := New(Config{
		DRAMBytes:   4 * PageSize,
		Policy:      policy.Policy{Dr: 1, Dw: 1},
		DRAMCharger: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(6)
	_, h, err := bm.NewPage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WriteAt(ctx, 100, []byte("x")); err != nil {
		t.Fatal(err)
	}
	h.Release()
	if rec.writes == 0 {
		t.Fatal("charger saw no writes")
	}
}

type recordingCharger struct{ reads, writes int }

func (r *recordingCharger) ChargeRead(c *vclock.Clock, off int64, n int)  { r.reads++ }
func (r *recordingCharger) ChargeWrite(c *vclock.Clock, off int64, n int) { r.writes++ }

func TestStatsPathsAccounted(t *testing.T) {
	// Drive each data-flow path at least once and confirm the counters
	// move: ❼ SSD→NVM, ❻ NVM→DRAM, ❹ DRAM→NVM, ❽ NVM→SSD, ❾ SSD→DRAM,
	// ❿ DRAM→SSD.
	bm := newBM(t, Config{
		DRAMBytes: 2 * PageSize,
		NVMBytes:  6 * nvmFrameSlot,
		Policy:    policy.SpitfireEager,
	})
	const pages = 10
	seed(t, bm, pages)
	ctx := NewCtx(7)
	touch := func(pid uint64) {
		h, err := bm.FetchPage(ctx, pid, WriteIntent)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WriteAt(ctx, 0, []byte{byte(pid)}); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	// A hot set that lives in NVM and repeatedly migrates up into the tiny
	// DRAM buffer (eager Dr/Dw), plus cold pages that churn NVM.
	for round := 0; round < 6; round++ {
		for pid := uint64(0); pid < 4; pid++ {
			touch(pid)
			touch(pid) // second touch: NVM hit -> migrate up
		}
		for pid := uint64(4); pid < pages; pid++ {
			touch(pid)
		}
	}
	st := bm.Stats()
	for name, v := range map[string]int64{
		"SSDToNVM":  st.SSDToNVM,
		"NVMToDRAM": st.NVMToDRAM,
		"DRAMToNVM": st.DRAMToNVM,
		"NVMToSSD":  st.NVMToSSD,
		"EvictDRAM": st.EvictDRAM,
		"EvictNVM":  st.EvictNVM,
	} {
		if v == 0 {
			t.Errorf("path %s never taken: %+v", name, st)
		}
	}
	bm.ResetStats()
	if st := bm.Stats(); st.SSDToNVM != 0 || st.HitDRAM != 0 {
		t.Fatal("ResetStats left counters")
	}
}

func TestResidentPages(t *testing.T) {
	bm := newBM(t, Config{Policy: policy.SpitfireEager})
	seed(t, bm, 4)
	ctx := NewCtx(8)
	for pid := uint64(0); pid < 4; pid++ {
		h, err := bm.FetchPage(ctx, pid, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	_, nvm := bm.ResidentPages()
	if nvm != 4 {
		t.Fatalf("NVM resident = %d, want 4 (Nr=1 installs everything)", nvm)
	}
}

func TestTierString(t *testing.T) {
	for tier, want := range map[Tier]string{
		TierDRAM: "DRAM", TierMini: "DRAM/mini", TierNVM: "NVM",
	} {
		if tier.String() != want {
			t.Fatalf("Tier(%d) = %q", int(tier), tier.String())
		}
	}
	if s := Tier(9).String(); s != "Tier(9)" {
		t.Fatalf("unknown tier = %q", s)
	}
}

func TestSeedPageAdvancesAllocator(t *testing.T) {
	bm := newBM(t, Config{Policy: policy.SpitfireEager})
	ctx := NewCtx(9)
	if err := bm.SeedPage(ctx, 41, make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
	if got := bm.AllocatePageID(); got != 42 {
		t.Fatalf("allocator returned %d after seeding pid 41", got)
	}
}

// TestSeedPageRefusesBufferedPage: SeedPage writes SSD only under a page
// with no buffered copy. Over a DRAM or an NVM copy it returns an error and
// leaves SSD and the copy as they were; a fresh page, or one whose copy has
// been evicted, is written.
func TestSeedPageRefusesBufferedPage(t *testing.T) {
	for name, pol := range map[string]policy.Policy{
		"dram": {Dr: 1, Dw: 1, Nr: 0, Nw: 0},
		"nvm":  {Dr: 0, Dw: 0, Nr: 1, Nw: 1},
	} {
		t.Run(name, func(t *testing.T) {
			bm := newBM(t, Config{DRAMBytes: PageSize, NVMBytes: nvmFrameSlot, Policy: pol})
			defer bm.Close()
			ctx := NewCtx(3)
			old, fresh := make([]byte, PageSize), make([]byte, PageSize)
			marker(old, 0, 1)
			marker(fresh, 0, 2)
			if err := bm.SeedPage(ctx, 0, old); err != nil {
				t.Fatalf("seeding a fresh page: %v", err)
			}
			h, err := bm.FetchPage(ctx, 0, ReadIntent)
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
			if err := bm.SeedPage(ctx, 0, fresh); err == nil {
				t.Fatal("SeedPage wrote SSD under a buffered page")
			}
			got := make([]byte, PageSize)
			if err := bm.Disk().ReadPage(ctx.Clock, 0, got); err != nil || !bytes.Equal(got, old) {
				t.Fatalf("a refused seed changed SSD (err %v)", err)
			}
			h, err = bm.FetchPage(ctx, 0, ReadIntent)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.ReadAt(ctx, 0, got); err != nil || !bytes.Equal(got, old) {
				t.Fatalf("a refused seed changed the buffered copy (err %v)", err)
			}
			h.Release()

			// Page 1 takes the only frame of the tier page 0 sat in: page 0
			// is unbuffered again and may be seeded.
			if err := bm.SeedPage(ctx, 1, old); err != nil {
				t.Fatal(err)
			}
			if h, err = bm.FetchPage(ctx, 1, ReadIntent); err != nil {
				t.Fatal(err)
			}
			h.Release()
			if err := bm.SeedPage(ctx, 0, fresh); err != nil {
				t.Fatalf("seeding an evicted page: %v", err)
			}
			if h, err = bm.FetchPage(ctx, 0, ReadIntent); err != nil {
				t.Fatal(err)
			}
			defer h.Release()
			if err := h.ReadAt(ctx, 0, got); err != nil || !bytes.Equal(got, fresh) {
				t.Fatalf("the re-seeded page reads back wrong (err %v)", err)
			}
		})
	}
}

// Ensure the device-sharing contract holds: a manager built over an
// explicit pmem arena charges that arena's device.
func TestExplicitArenaCharged(t *testing.T) {
	dev := device.New(device.NVMParams)
	bm := newBM(t, Config{
		DRAMBytes: 2 * PageSize,
		NVMBytes:  4 * nvmFrameSlot,
		Policy:    policy.SpitfireEager,
		PMem:      pmem.New(pmem.Options{Size: 4 * nvmFrameSlot, Device: dev}),
	})
	seed(t, bm, 2)
	ctx := NewCtx(10)
	h, err := bm.FetchPage(ctx, 0, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if dev.Stats().WriteOps == 0 {
		t.Fatal("explicit arena's device saw no traffic")
	}
}
