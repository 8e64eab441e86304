package core

import (
	"bytes"
	"errors"
	"testing"

	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/ssd"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// countingStore counts the calls the manager makes into an SSD store and
// keeps the first byte of the last page it was handed to write and that
// write's unit mask. Single-goroutine tests only.
type countingStore struct {
	ssd.Store
	lends, reads, writes int
	wrote                *byte
	units                uint64
}

func (s *countingStore) Lend(c *vclock.Clock, pid uint64) ([]byte, error) {
	s.lends++
	return s.Store.Lend(c, pid)
}

func (s *countingStore) ReadPage(c *vclock.Clock, pid uint64, buf []byte) error {
	s.reads++
	return s.Store.ReadPage(c, pid, buf)
}

func (s *countingStore) WritePage(c *vclock.Clock, pid uint64, buf []byte) error {
	return s.WriteUnits(c, pid, buf, ssd.AllUnits)
}

func (s *countingStore) WriteUnits(c *vclock.Clock, pid uint64, buf []byte, units uint64) error {
	s.writes++
	s.wrote, s.units = &buf[0], units
	return s.Store.WriteUnits(c, pid, buf, units)
}

// toNVM sends every miss and every new page to NVM and never migrates up.
var toNVM = policy.Policy{Dr: 0, Dw: 0, Nr: 1, Nw: 0}

// evictNVMCopy evicts page pid's NVM copy the way the victim search does,
// and frees the frame if the eviction succeeded.
func evictNVMCopy(t *testing.T, bm *BufferManager, ctx *Ctx, pid PageID) (bool, error) {
	t.Helper()
	v := bm.descriptorFor(pid).nvmFrame.Load()
	if v == noFrame {
		t.Fatalf("page %d has no NVM copy", pid)
	}
	if !bm.nvm.meta[v].tryFreeze() {
		t.Fatal("NVM copy is pinned")
	}
	ok, err := bm.nvm.evict(ctx, v)
	if ok {
		bm.nvm.release(ctx.holder(), v)
	}
	return ok, err
}

// dirtyInNVM fetches page pid, which must miss into NVM (path ❼), and
// overwrites it with marker version 1.
func dirtyInNVM(t *testing.T, bm *BufferManager, ctx *Ctx, pid PageID) {
	t.Helper()
	h, err := bm.FetchPage(ctx, pid, WriteIntent)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if h.Tier() != TierNVM {
		t.Fatalf("setup: page %d served from %v, want NVM", pid, h.Tier())
	}
	data := make([]byte, PageSize)
	marker(data, pid, 1)
	if err := h.WriteAt(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
}

// sentinel fills every NVM frame's payload with b, behind the simulated
// device's back, so a test can see which bytes a move copied.
func sentinel(bm *BufferManager, b byte) {
	for f := 0; f < bm.nvm.nFrames; f++ {
		p := bm.nvm.pm.Bytes(bm.nvm.payloadOffset(int32(f)), PageSize)
		for i := range p {
			p[i] = b
		}
	}
}

// copiedUnits is the mask of the units of NVM frame nf's payload that no
// longer hold only the sentinel b.
func copiedUnits(bm *BufferManager, nf int32, b byte) uint64 {
	p := bm.nvm.pm.Bytes(bm.nvm.payloadOffset(nf), PageSize)
	units := uint64(0)
	for i := range p {
		if p[i] != b {
			units |= 1 << (i / ssd.UnitSize)
		}
	}
	return units
}

// TestOneHostCopyPerNVMSSDMove pins the host copies of the moves between
// NVM and SSD, on payloads filled with a sentinel. An SSD miss installed in
// NVM (❼) borrows the store's page and copies none of it: one Lend, no
// ReadPage, every payload byte still the sentinel, and the frame reads as
// the store's page. A lent DRAM frame admitted to NVM (❹) copies exactly the
// units its mask names and hands the NVM frame the same lent page. A dirty
// NVM page written back (❽) hands the store the arena's own bytes. A new
// page placed in NVM is installed from the shared zero page, which nothing
// writes.
func TestOneHostCopyPerNVMSSDMove(t *testing.T) {
	t.Run("lending store", func(t *testing.T) {
		const sent = 0x5A
		store := &countingStore{Store: ssd.NewMem(nil)}
		bm := newBM(t, Config{DRAMBytes: 4 * PageSize, NVMBytes: 4 * nvmFrameSlot, Policy: toNVM, SSD: store})
		defer bm.Close()
		seed(t, bm, 2)
		*store = countingStore{Store: store.Store}
		ctx := NewCtx(41)

		// A new page in NVM: the zero page stays zero.
		pid, h, err := bm.NewPage(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Tier() != TierNVM {
			t.Fatalf("new page placed in %v, want NVM", h.Tier())
		}
		got := make([]byte, PageSize)
		if err := h.ReadAt(ctx, 0, got); err != nil {
			t.Fatal(err)
		}
		if err := h.WriteAt(ctx, 0, []byte{0xFF}); err != nil {
			t.Fatal(err)
		}
		h.Release()
		if !bytes.Equal(got, zeroPage[:]) || zeroPage[0] != 0 {
			t.Fatalf("new page %d did not read as zeros, or a write reached the shared zero page", pid)
		}

		// ❼: one lend, no ReadPage, no byte copied.
		sentinel(bm, sent)
		h, err = bm.FetchPage(ctx, 0, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		if h.Tier() != TierNVM {
			t.Fatalf("page 0 served from %v, want NVM", h.Tier())
		}
		if err := h.ReadAt(ctx, 0, got); err != nil {
			t.Fatal(err)
		}
		v := h.frame
		h.Release()
		want := make([]byte, PageSize)
		marker(want, 0, 0)
		if store.lends != 1 || store.reads != 0 {
			t.Fatalf("SSD→NVM miss made %d Lend and %d ReadPage calls, want 1 and 0", store.lends, store.reads)
		}
		if units := copiedUnits(bm, v, sent); units != 0 {
			t.Fatalf("SSD→NVM miss copied units %#x into the NVM frame, want none", units)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("the NVM frame does not read as the store's page")
		}

		// ❽: the store is handed the NVM arena's bytes.
		dirtyInNVM(t, bm, ctx, 0)
		arena := &bm.nvm.pm.Bytes(bm.nvm.payloadOffset(v), PageSize)[0]
		if ok, err := evictNVMCopy(t, bm, ctx, 0); !ok {
			t.Fatalf("evict NVM copy: %v", err)
		}
		if store.writes != 1 || store.wrote != arena {
			t.Fatalf("NVM→SSD write-back made %d store writes; aliases the NVM frame: %v",
				store.writes, store.wrote == arena)
		}
		if st := bm.Stats(); st.SSDToNVM != 1 || st.NVMToSSD != 1 {
			t.Fatalf("moves counted: ssd→nvm %d, nvm→ssd %d; want 1 and 1", st.SSDToNVM, st.NVMToSSD)
		}
		marker(want, 0, 1)
		if err := store.Store.ReadPage(ctx.Clock, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("the written-back page lost its update")
		}

		// ❹ of a lent DRAM frame: only its mask's units are copied.
		if err := bm.SetPolicy(policy.Policy{Dr: 1, Dw: 1, Nr: 0, Nw: 1}); err != nil {
			t.Fatal(err)
		}
		h, err = bm.FetchPage(ctx, 1, WriteIntent)
		if err != nil {
			t.Fatal(err)
		}
		if h.Tier() != TierDRAM || bm.dram.meta[h.frame].lent.Load() == nil {
			t.Fatalf("page 1 served from %v, want a lent DRAM frame", h.Tier())
		}
		marker(want, 1, 0)
		for _, w := range []struct{ off, n int }{{9 * ssd.UnitSize, ssd.UnitSize}, {20*ssd.UnitSize + 7, 3}} {
			data := bytes.Repeat([]byte{0xEE}, w.n)
			if err := h.WriteAt(ctx, w.off, data); err != nil {
				t.Fatal(err)
			}
			copy(want[w.off:], data)
		}
		lent, v := bm.dram.meta[h.frame].lent.Load(), h.frame
		h.Release()
		sentinel(bm, sent)
		evictCopy(t, &bm.dram.basePool, ctx, v)
		nf := bm.descriptorFor(1).nvmFrame.Load()
		if nf == noFrame {
			t.Fatal("the dirty lent page was not admitted to NVM")
		}
		const mask = 1<<9 | 1<<20
		if units := copiedUnits(bm, nf, sent); units != mask {
			t.Fatalf("admitting a lent DRAM frame copied units %#x, want its mask %#x", units, uint64(mask))
		}
		m := &bm.nvm.meta[nf]
		if m.lent.Load() != lent || m.diff.Load() != mask || bm.nvm.readWord(nf) != mask {
			t.Fatalf("the admitted NVM frame: same lent page %v, mask %#x, word %#x; want true and %#x",
				m.lent.Load() == lent, m.diff.Load(), bm.nvm.readWord(nf), uint64(mask))
		}
		h, err = bm.FetchPage(ctx, 1, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.ReadAt(ctx, 0, got); err != nil {
			t.Fatal(err)
		}
		h.Release()
		if !bytes.Equal(got, want) {
			t.Fatal("the admitted page reads back wrong")
		}
		if err := bm.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestManagerOnlyLends pins lending as the one way the manager reads the
// SSD store: each route that reads a page from SSD borrows it with Lend and
// never calls ReadPage. The routes are a miss into NVM (❼), a miss into DRAM
// (❾) with either intent, MaterializePage of a page already on SSD, a
// checkpoint, and a fetch after Recover.
func TestManagerOnlyLends(t *testing.T) {
	intoDRAM := policy.Policy{Dr: 1, Dw: 1, Nr: 0, Nw: 1}
	fetch := func(t *testing.T, bm *BufferManager, ctx *Ctx, pid PageID, intent Intent, tier Tier) {
		t.Helper()
		h, err := bm.FetchPage(ctx, pid, intent)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		if h.Tier() != tier {
			t.Fatalf("page %d served from %v, want %v", pid, h.Tier(), tier)
		}
	}
	cases := []struct {
		name string
		pol  policy.Policy
		run  func(t *testing.T, bm *BufferManager, ctx *Ctx)
	}{
		{"SSD to NVM", toNVM, func(t *testing.T, bm *BufferManager, ctx *Ctx) {
			fetch(t, bm, ctx, 0, ReadIntent, TierNVM)
		}},
		{"SSD to DRAM, read intent", intoDRAM, func(t *testing.T, bm *BufferManager, ctx *Ctx) {
			fetch(t, bm, ctx, 0, ReadIntent, TierDRAM)
		}},
		{"SSD to DRAM, write intent", intoDRAM, func(t *testing.T, bm *BufferManager, ctx *Ctx) {
			fetch(t, bm, ctx, 0, WriteIntent, TierDRAM)
		}},
		{"materialize a page on SSD", intoDRAM, func(t *testing.T, bm *BufferManager, ctx *Ctx) {
			h, err := bm.MaterializePage(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
		}},
		{"checkpoint", policy.Policy{Dr: 1, Dw: 1}, func(t *testing.T, bm *BufferManager, ctx *Ctx) {
			writeUnit5(t, bm, ctx, 0, 0xEE)
			if err := bm.FlushDirtyDRAM(ctx); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := &countingStore{Store: ssd.NewMem(nil)}
			bm := newBM(t, Config{DRAMBytes: 4 * PageSize, NVMBytes: 4 * nvmFrameSlot, Policy: tc.pol, SSD: store})
			defer bm.Close()
			seed(t, bm, 1)
			*store = countingStore{Store: store.Store}
			tc.run(t, bm, NewCtx(53))
			if store.lends != 1 || store.reads != 0 {
				t.Fatalf("%d Lend and %d ReadPage calls, want 1 and 0", store.lends, store.reads)
			}
		})
	}

	t.Run("fetch after Recover", func(t *testing.T) {
		cfg, _, _ := crashConfig(4)
		cfg.Policy = toNVM
		bm, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seed(t, bm, 2)
		ctx := NewCtx(54)
		dirtyInNVM(t, bm, ctx, 0)
		bm.Close()
		store := &countingStore{Store: cfg.SSD}
		cfg.SSD = store
		if bm, err = Recover(cfg); err != nil {
			t.Fatal(err)
		}
		defer bm.Close()
		fetch(t, bm, ctx, 0, ReadIntent, TierNVM) // recovered from NVM
		fetch(t, bm, ctx, 1, ReadIntent, TierNVM) // a miss
		if store.lends != 1 || store.reads != 0 {
			t.Fatalf("Recover and two fetches made %d Lend and %d ReadPage calls, want 1 and 0", store.lends, store.reads)
		}
	})
}

// evictCopy evicts the page in frame v of pool p the way the victim search
// does, and frees the frame.
func evictCopy(t *testing.T, p *basePool, ctx *Ctx, v int32) {
	t.Helper()
	if !p.meta[v].tryFreeze() {
		t.Fatalf("%v frame %d is pinned", p.tier, v)
	}
	if ok, err := p.evict(ctx, v); !ok {
		t.Fatalf("evict %v frame %d: %v", p.tier, v, err)
	}
	p.release(ctx.holder(), v)
}

// writeUnit5 overwrites unit 5 of page pid, bytes [1280, 1536), with b.
func writeUnit5(t *testing.T, bm *BufferManager, ctx *Ctx, pid PageID, b byte) {
	t.Helper()
	h, err := bm.FetchPage(ctx, pid, WriteIntent)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if err := h.WriteAt(ctx, 5*ssd.UnitSize, bytes.Repeat([]byte{b}, ssd.UnitSize)); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBackHandsStoreChangedUnits pins the write-back mask each path
// hands the SSD store. One 256-B write at unit 5 of a page loaded from SSD
// reaches the store as that unit alone, whether the NVM copy is written back
// (❽), or a DRAM-only copy is, by eviction or by a checkpoint; a checkpoint
// leaves the copy's mask empty, so the next one hands only what changed
// since. A new page hands every unit. An NVM frame found by Recover hands
// the units of its mask word: those a lent frame took over, or every unit
// of a frame that owns its page.
func TestWriteBackHandsStoreChangedUnits(t *testing.T) {
	dramOnly := policy.Policy{Dr: 1, Dw: 1}
	expect := func(t *testing.T, store *countingStore, writes int, units uint64) {
		t.Helper()
		if store.writes != writes || store.units != units {
			t.Fatalf("the store saw %d writes, the last with units %#x; want %d and %#x",
				store.writes, store.units, writes, units)
		}
	}
	newStore := func(t *testing.T, cfg Config) (*BufferManager, *countingStore) {
		store := &countingStore{Store: ssd.NewMem(nil)}
		cfg.SSD = store
		bm := newBM(t, cfg)
		t.Cleanup(bm.Close)
		seed(t, bm, 1)
		*store = countingStore{Store: store.Store}
		return bm, store
	}

	t.Run("NVM to SSD", func(t *testing.T) {
		bm, store := newStore(t, Config{DRAMBytes: 4 * PageSize, NVMBytes: 4 * nvmFrameSlot, Policy: toNVM})
		ctx := NewCtx(46)
		writeUnit5(t, bm, ctx, 0, 0xEE)
		if ok, err := evictNVMCopy(t, bm, ctx, 0); !ok {
			t.Fatal(err)
		}
		expect(t, store, 1, 1<<5)
	})

	t.Run("DRAM to SSD on eviction", func(t *testing.T) {
		bm, store := newStore(t, Config{DRAMBytes: 4 * PageSize, Policy: dramOnly})
		ctx := NewCtx(47)
		writeUnit5(t, bm, ctx, 0, 0xEE)
		evictCopy(t, &bm.dram.basePool, ctx, bm.descriptorFor(0).dramFrame.Load())
		expect(t, store, 1, 1<<5)
	})

	t.Run("DRAM to SSD on checkpoint", func(t *testing.T) {
		bm, store := newStore(t, Config{DRAMBytes: 4 * PageSize, Policy: dramOnly})
		ctx := NewCtx(48)
		writeUnit5(t, bm, ctx, 0, 0xEE)
		if err := bm.FlushDirtyDRAM(ctx); err != nil {
			t.Fatal(err)
		}
		expect(t, store, 1, 1<<5)
		h, err := bm.FetchPage(ctx, 0, WriteIntent)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WriteAt(ctx, 7*ssd.UnitSize+10, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		h.Release()
		if err := bm.FlushDirtyDRAM(ctx); err != nil {
			t.Fatal(err)
		}
		expect(t, store, 2, 1<<7)
	})

	t.Run("new page", func(t *testing.T) {
		for name, pol := range map[string]policy.Policy{"DRAM": dramOnly, "NVM": toNVM} {
			t.Run(name, func(t *testing.T) {
				bm, store := newStore(t, Config{DRAMBytes: 4 * PageSize, NVMBytes: 4 * nvmFrameSlot, Policy: pol})
				ctx := NewCtx(49)
				pid, h, err := bm.NewPage(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if h.Tier().String() != name {
					t.Fatalf("new page placed in %v, want %s", h.Tier(), name)
				}
				h.Release()
				writeUnit5(t, bm, ctx, pid, 0xEE)
				if name == "DRAM" {
					evictCopy(t, &bm.dram.basePool, ctx, bm.descriptorFor(pid).dramFrame.Load())
				} else if ok, err := evictNVMCopy(t, bm, ctx, pid); !ok {
					t.Fatal(err)
				}
				expect(t, store, 1, ssd.AllUnits)
			})
		}
	})

	t.Run("recovered NVM frame", func(t *testing.T) {
		cfg, _, _ := crashConfig(4)
		cfg.Policy = toNVM
		bm, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seed(t, bm, 1)
		ctx := NewCtx(50)
		writeUnit5(t, bm, ctx, 0, 0xEE)
		pid, h, err := bm.NewPage(ctx)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
		bm.Close()
		store := &countingStore{Store: cfg.SSD}
		cfg.SSD = store
		bm, err = Recover(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer bm.Close()
		if ok, err := evictNVMCopy(t, bm, ctx, 0); !ok {
			t.Fatal(err)
		}
		expect(t, store, 1, 1<<5)
		if ok, err := evictNVMCopy(t, bm, ctx, pid); !ok {
			t.Fatal(err)
		}
		expect(t, store, 2, ssd.AllUnits)
	})
}

// movesSnapshot is what the fault cases compare before and after a move:
// the manager's retry counters and both devices' traffic.
type movesSnapshot struct {
	retries, giveUps int64
	nvm, ssd         device.Stats
}

func snapMoves(bm *BufferManager) movesSnapshot {
	st := bm.Stats()
	return movesSnapshot{st.IORetries, st.IOGiveUps, bm.nvm.pm.Device().Stats(), bm.Disk().Device().Stats()}
}

// TestNVMSSDMoveFaults: device faults on the two NVM↔SSD moves are retried,
// charged, counted and handled exactly as on the copying paths the moves
// replaced — a failed read charges nothing and a retried one is charged
// once, a permanent NVM fault degrades the tier, a failed lend gives the NVM
// frame back, and a write-back that cannot reach SSD keeps the NVM copy.
func TestNVMSSDMoveFaults(t *testing.T) {
	t.Run("transient NVM read on write-back is retried", func(t *testing.T) {
		bm, _, nvmInj := faultBM(t, Config{DRAMBytes: 4 * PageSize, NVMBytes: 4 * nvmFrameSlot, Policy: toNVM})
		seed(t, bm, 1)
		ctx := NewCtx(42)
		dirtyInNVM(t, bm, ctx, 0)
		nvmInj.Rearm(device.FaultConfig{Seed: 11, ReadErrProb: 0.5})
		before := snapMoves(bm)
		if ok, err := evictNVMCopy(t, bm, ctx, 0); !ok {
			t.Fatalf("write-back under transient NVM read faults: %v", err)
		}
		after, faults := snapMoves(bm), nvmInj.Stats()
		if faults.ReadErrors == 0 {
			t.Fatal("no NVM read faulted: the case exercised nothing")
		}
		if got := after.retries - before.retries; got != faults.ReadErrors {
			t.Errorf("%d retries counted for %d injected read faults", got, faults.ReadErrors)
		}
		if after.giveUps != before.giveUps {
			t.Error("a write-back that succeeded on retry counted a give-up")
		}
		if got := after.nvm.ReadOps - before.nvm.ReadOps; got != 1 || after.nvm.BytesRead-before.nvm.BytesRead != PageSize {
			t.Errorf("NVM charged %d reads of %d bytes, want one page", got, after.nvm.BytesRead-before.nvm.BytesRead)
		}
		if got := after.ssd.WriteOps - before.ssd.WriteOps; got != 1 {
			t.Errorf("SSD charged %d writes, want 1", got)
		}
		if bm.NVMDegraded() {
			t.Error("transient faults degraded the tier")
		}
	})

	t.Run("permanent NVM read on write-back degrades the tier", func(t *testing.T) {
		bm, _, nvmInj := faultBM(t, Config{DRAMBytes: 4 * PageSize, NVMBytes: 4 * nvmFrameSlot, Policy: toNVM})
		seed(t, bm, 1)
		ctx := NewCtx(43)
		dirtyInNVM(t, bm, ctx, 0)
		nvmInj.FailNow()
		before := snapMoves(bm)
		ok, err := evictNVMCopy(t, bm, ctx, 0)
		if ok || !errors.Is(err, device.ErrPermanent) {
			t.Fatalf("write-back from a failed NVM = %v, %v; want an ErrPermanent failure", ok, err)
		}
		after := snapMoves(bm)
		if after.retries != before.retries || after.giveUps-before.giveUps != 1 {
			t.Errorf("counted %d retries and %d give-ups, want 0 and 1",
				after.retries-before.retries, after.giveUps-before.giveUps)
		}
		if after.nvm.ReadOps != before.nvm.ReadOps || after.ssd.WriteOps != before.ssd.WriteOps {
			t.Error("a failed NVM read charged the read or wrote SSD")
		}
		if !bm.NVMDegraded() {
			t.Fatal("a permanent NVM fault on write-back did not degrade the tier")
		}
		if st := bm.Stats(); st.NVMOrphanedPages != 1 {
			t.Errorf("orphaned pages = %d, want 1 (the dirty page lived only in NVM)", st.NVMOrphanedPages)
		}
	})

	t.Run("SSD read fault on a lend releases the NVM frame", func(t *testing.T) {
		bm, ssdInj, _ := faultBM(t, Config{NVMBytes: 4 * nvmFrameSlot, Policy: toNVM})
		seed(t, bm, 1)
		ssdInj.Rearm(device.FaultConfig{Seed: 6, ReadErrProb: 1})
		ctx := NewCtx(44)
		before := snapMoves(bm)
		if _, err := bm.FetchPage(ctx, 0, ReadIntent); !errors.Is(err, device.ErrTransient) {
			t.Fatalf("miss with a failing SSD = %v, want ErrTransient", err)
		}
		after, faults := snapMoves(bm), ssdInj.Stats()
		if got := after.retries - before.retries; got != faults.ReadErrors-1 || after.giveUps-before.giveUps != 1 {
			t.Errorf("counted %d retries and %d give-ups for %d faulted reads, want %d and 1",
				got, after.giveUps-before.giveUps, faults.ReadErrors, faults.ReadErrors-1)
		}
		if after.ssd.ReadOps != before.ssd.ReadOps || after.nvm != before.nvm {
			t.Error("a failed lend charged the SSD read or touched NVM")
		}
		if n := bm.nvm.freeCount(); n != bm.nvm.nFrames {
			t.Fatalf("%d of %d NVM frames free after the failed miss", n, bm.nvm.nFrames)
		}
		if bm.descriptorFor(0).nvmFrame.Load() != noFrame {
			t.Fatal("a failed miss left an NVM copy attached")
		}
		ssdInj.Rearm(device.FaultConfig{Seed: 6})
		h, err := bm.FetchPage(ctx, 0, ReadIntent)
		if err != nil {
			t.Fatalf("miss after the fault cleared: %v", err)
		}
		h.Release()
		if err := bm.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("torn SSD write keeps the dirty NVM copy", func(t *testing.T) {
		bm, ssdInj, _ := faultBM(t, Config{DRAMBytes: 4 * PageSize, NVMBytes: 4 * nvmFrameSlot, Policy: toNVM})
		seed(t, bm, 1)
		ctx := NewCtx(45)
		dirtyInNVM(t, bm, ctx, 0)
		v := bm.descriptorFor(0).nvmFrame.Load()
		ssdInj.Rearm(device.FaultConfig{Seed: 7, TornWriteProb: 1})
		before := snapMoves(bm)
		ok, err := evictNVMCopy(t, bm, ctx, 0)
		if ok || !errors.Is(err, device.ErrTorn) {
			t.Fatalf("write-back onto a tearing SSD = %v, %v; want an ErrTorn failure", ok, err)
		}
		after, faults := snapMoves(bm), ssdInj.Stats()
		if got := after.retries - before.retries; got != faults.TornWrites-1 || after.giveUps-before.giveUps != 1 {
			t.Errorf("counted %d retries and %d give-ups for %d torn writes, want %d and 1",
				got, after.giveUps-before.giveUps, faults.TornWrites, faults.TornWrites-1)
		}
		if got := after.ssd.WriteOps - before.ssd.WriteOps; got != faults.TornWrites {
			t.Errorf("SSD charged %d writes for %d torn ones (a tear still moves the bytes)", got, faults.TornWrites)
		}
		if got := after.nvm.ReadOps - before.nvm.ReadOps; got != 1 {
			t.Errorf("NVM charged %d reads, want the one page read", got)
		}
		if bm.descriptorFor(0).nvmFrame.Load() != v || !bm.nvm.meta[v].dirty.Load() {
			t.Fatal("a failed write-back detached or cleaned the NVM copy")
		}
		if err := bm.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		ssdInj.Rearm(device.FaultConfig{Seed: 7})
		h, err := bm.FetchPage(ctx, 0, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		got, want := make([]byte, PageSize), make([]byte, PageSize)
		marker(want, 0, 1)
		if err := h.ReadAt(ctx, 0, got); err != nil {
			t.Fatal(err)
		}
		h.Release()
		if !bytes.Equal(got, want) {
			t.Fatal("the NVM copy lost its update")
		}
	})
}
