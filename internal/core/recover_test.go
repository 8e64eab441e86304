package core

import (
	"bytes"
	"testing"

	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/ssd"
)

// crashConfig builds a manager whose NVM arena tracks crashes and whose SSD
// is shared, so a successor manager can be built on the survivors.
func crashConfig(nvmFrames int) (Config, *pmem.PMem, ssd.Store) {
	pm := pmem.New(pmem.Options{
		Size:         int64(nvmFrames) * nvmFrameSlot,
		TrackCrashes: true,
	})
	disk := ssd.NewMem(nil)
	return Config{
		DRAMBytes: 4 * PageSize,
		NVMBytes:  int64(nvmFrames) * nvmFrameSlot,
		Policy:    policy.SpitfireEager,
		PMem:      pm,
		SSD:       disk,
	}, pm, disk
}

func TestRecoverRebuildsNVMBuffer(t *testing.T) {
	cfg, pm, disk := crashConfig(8)
	bm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(30)
	// Seed four pages and update them through the NVM buffer. NVM writes
	// are persisted (clwb+sfence) by the write path.
	buf := make([]byte, PageSize)
	for pid := uint64(0); pid < 4; pid++ {
		marker(buf, pid, 0)
		if err := bm.SeedPage(ctx, pid, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Pull pages into NVM (first fetch installs there under Nr=1) and
	// update them in place.
	for pid := uint64(0); pid < 4; pid++ {
		h, err := bm.FetchPage(ctx, pid, WriteIntent)
		if err != nil {
			t.Fatal(err)
		}
		if h.Tier() != TierNVM {
			t.Fatalf("setup: page %d served from %v", pid, h.Tier())
		}
		if err := h.WriteAt(ctx, 64, []byte("survivor")); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}

	// Crash: unpersisted state is lost; NVM page writes were persisted.
	pm.Crash()

	cfg2 := cfg
	cfg2.PMem = pm
	cfg2.SSD = disk
	bm2, err := Recover(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if st := bm2.Stats(); st.RecoveredNVMPages != 4 {
		t.Fatalf("recovered %d pages, want 4", st.RecoveredNVMPages)
	}
	got := make([]byte, 8)
	for pid := uint64(0); pid < 4; pid++ {
		h, err := bm2.FetchPage(ctx, pid, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.ReadAt(ctx, 64, got); err != nil {
			t.Fatal(err)
		}
		h.Release()
		if string(got) != "survivor" {
			t.Fatalf("page %d lost NVM update across crash: %q", pid, got)
		}
	}
	// The allocator must not reuse recovered ids.
	if bm2.NextPageID() < 4 {
		t.Fatalf("next page id %d would collide with recovered pages", bm2.NextPageID())
	}
}

func TestRecoverEmptyArena(t *testing.T) {
	cfg, _, _ := crashConfig(8)
	bm, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := bm.Stats(); st.RecoveredNVMPages != 0 {
		t.Fatalf("recovered %d pages from an empty arena", st.RecoveredNVMPages)
	}
	// All frames must be allocatable.
	ctx := NewCtx(31)
	for i := 0; i < 8; i++ {
		_, h, err := bm.NewPage(ctx)
		if err != nil {
			t.Fatalf("frame %d unavailable after empty recovery: %v", i, err)
		}
		h.Release()
	}
}

func TestRecoverRequiresArena(t *testing.T) {
	if _, err := Recover(Config{DRAMBytes: PageSize, NVMBytes: nvmFrameSlot}); err == nil {
		t.Fatal("Recover without an arena succeeded")
	}
}

func TestRecoveredPagesEvictToSSD(t *testing.T) {
	// Recovered pages are conservatively dirty: churning them out of a
	// small recovered NVM buffer must write them to SSD, not lose them.
	cfg, pm, disk := crashConfig(4)
	cfg.DRAMBytes = 0 // NVM-SSD hierarchy for simplicity
	bm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(32)
	buf := make([]byte, PageSize)
	for pid := uint64(0); pid < 4; pid++ {
		marker(buf, pid, 0)
		if err := bm.SeedPage(ctx, pid, buf); err != nil {
			t.Fatal(err)
		}
		h, err := bm.FetchPage(ctx, pid, WriteIntent)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WriteAt(ctx, 0, []byte{0xC7}); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	pm.Crash()

	cfg2 := cfg
	cfg2.PMem = pm
	cfg2.SSD = disk
	bm2, err := Recover(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the 4-frame NVM buffer with 4 new pages, evicting the
	// recovered ones to SSD.
	for i := 0; i < 4; i++ {
		pid := uint64(100 + i)
		marker(buf, pid, 0)
		if err := bm2.SeedPage(ctx, pid, buf); err != nil {
			t.Fatal(err)
		}
		h, err := bm2.FetchPage(ctx, pid, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	// The recovered updates must now be on SSD.
	for pid := uint64(0); pid < 4; pid++ {
		want := make([]byte, PageSize)
		marker(want, pid, 0)
		want[0] = 0xC7
		got := make([]byte, PageSize)
		if err := disk.ReadPage(ctx.Clock, pid, got); err != nil {
			t.Fatalf("page %d missing from SSD after recovered eviction: %v", pid, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d content wrong after recovered eviction", pid)
		}
	}
}

// TestRecoverLentNVMFrames: an NVM frame the SSD store lent its page comes
// back lent after a power loss. After each of a miss into NVM (❼), the
// admission of a lent DRAM frame (❹), a takeover of part of a unit, a
// takeover of whole units and a whole-page write-down into a lent frame, the
// machine loses power (pmem.Crash) and Recover rebuilds the buffer with no
// SSD read and no Lend: the page reads back its last completed image, and
// its recovered frame writes back only the units of its mask word. The last
// three steps also crash inside their takeover — before it, after each of
// its durable host stores, and on the charged write after them, which tears
// — and must recover the image from before the write, except for a torn
// prefix of the write's own bytes. Each crash finds the units the frame does
// not hold filled with a sentinel, so a mask word that names a unit the
// arena does not hold shows.
func TestRecoverLentNVMFrames(t *testing.T) {
	img0 := make([]byte, PageSize)
	marker(img0, 0, 0)
	withWrite := func(img []byte, off int, data []byte) []byte {
		img = append([]byte(nil), img...)
		copy(img[off:], data)
		return img
	}
	fetchWrite := func(bm *BufferManager, ctx *Ctx, off int, data []byte) error {
		h, err := bm.FetchPage(ctx, 0, WriteIntent)
		if err != nil {
			return err
		}
		defer h.Release()
		return h.WriteAt(ctx, off, data)
	}
	miss := func(t *testing.T, bm *BufferManager, ctx *Ctx) {
		h, err := bm.FetchPage(ctx, 0, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	partial, units := []byte{1, 2, 3}, bytes.Repeat([]byte{0xEE}, 2*ssd.UnitSize)
	imgDown := withWrite(withWrite(img0, 5*ssd.UnitSize+10, partial), 30*ssd.UnitSize, []byte{9, 9, 9, 9})

	steps := []struct {
		name          string
		setup         func(t *testing.T, bm *BufferManager, ctx *Ctx) // brings page 0 to the image before
		act           func(t *testing.T, bm *BufferManager, ctx *Ctx) error
		before, after []byte
		off, n        int    // the range act writes into the NVM frame, if it crashes inside
		word          uint64 // the frame's mask word after act
	}{
		{name: "miss into NVM",
			act:    func(t *testing.T, bm *BufferManager, ctx *Ctx) error { miss(t, bm, ctx); return nil },
			before: img0, after: img0, word: 0},
		{name: "admission of a lent DRAM frame",
			act: func(t *testing.T, bm *BufferManager, ctx *Ctx) error {
				if err := bm.SetPolicy(policy.Policy{Dr: 1, Dw: 1, Nr: 0, Nw: 1}); err != nil {
					return err
				}
				if err := fetchWrite(bm, ctx, 9*ssd.UnitSize, units[:ssd.UnitSize]); err != nil {
					return err
				}
				evictCopy(t, &bm.dram.basePool, ctx, bm.descriptorFor(0).dramFrame.Load())
				return nil
			},
			before: img0, after: withWrite(img0, 9*ssd.UnitSize, units[:ssd.UnitSize]), word: 1 << 9},
		{name: "takeover of part of a unit", setup: miss,
			act: func(_ *testing.T, bm *BufferManager, ctx *Ctx) error {
				return fetchWrite(bm, ctx, 5*ssd.UnitSize+10, partial)
			},
			before: img0, after: withWrite(img0, 5*ssd.UnitSize+10, partial),
			off: 5*ssd.UnitSize + 10, n: len(partial), word: 1 << 5},
		{name: "takeover of whole units", setup: miss,
			act: func(_ *testing.T, bm *BufferManager, ctx *Ctx) error {
				return fetchWrite(bm, ctx, 7*ssd.UnitSize, units)
			},
			before: img0, after: withWrite(img0, 7*ssd.UnitSize, units),
			off: 7 * ssd.UnitSize, n: len(units), word: 3 << 7},
		{name: "whole-page write-down into a lent frame",
			setup: func(t *testing.T, bm *BufferManager, ctx *Ctx) {
				miss(t, bm, ctx)
				if err := fetchWrite(bm, ctx, 5*ssd.UnitSize+10, partial); err != nil {
					t.Fatal(err)
				}
				if err := bm.SetPolicy(policy.Policy{Dr: 1, Dw: 1}); err != nil {
					t.Fatal(err)
				}
				if err := fetchWrite(bm, ctx, 30*ssd.UnitSize, []byte{9, 9, 9, 9}); err != nil { // migrates up (❻)
					t.Fatal(err)
				}
				if bm.descriptorFor(0).dramFrame.Load() == noFrame {
					t.Fatal("setup: page 0 did not migrate up to DRAM")
				}
			},
			act:    func(_ *testing.T, bm *BufferManager, ctx *Ctx) error { return bm.FlushDirtyDRAM(ctx) },
			before: withWrite(img0, 5*ssd.UnitSize+10, partial), after: imgDown,
			off: 0, n: PageSize, word: ssd.AllUnits},
	}

	// run runs step i on a fresh machine and returns how many host stores
	// its act made. With crashAt >= 0 the machine dies after that many of
	// them (0: before act); with torn, at act's first charged NVM write,
	// which tears.
	run := func(t *testing.T, i, crashAt int, torn bool) (stores int) {
		t.Helper()
		st := steps[i]
		nvmDev := device.New(device.NVMParams)
		inj := device.NewInjector(device.FaultConfig{Seed: 3})
		sw := device.NewCrashSwitch()
		inj.AttachCrash(sw)
		nvmDev.SetFaults(inj)
		store := &countingStore{Store: ssd.NewMem(nil)}
		cfg := Config{
			DRAMBytes: 4 * PageSize,
			NVMBytes:  4 * nvmFrameSlot,
			Policy:    toNVM,
			PMem:      pmem.New(pmem.Options{Size: 4 * nvmFrameSlot, TrackCrashes: true, Device: nvmDev}),
			SSD:       store,
		}
		bm := newBM(t, cfg)
		seed(t, bm, 1)
		ctx := NewCtx(60)
		if st.setup != nil {
			st.setup(t, bm, ctx)
		}
		for f := range bm.nvm.meta {
			m := &bm.nvm.meta[f]
			if m.pid.Load() != InvalidPageID && m.lent.Load() == nil {
				continue
			}
			p, diff := bm.nvm.pm.Bytes(bm.nvm.payloadOffset(int32(f)), PageSize), m.diff.Load()
			for i := range p {
				if diff&(1<<(i/ssd.UnitSize)) == 0 {
					p[i] = 0x5A
				}
			}
		}

		defer func(prev func()) { hostStored = prev }(hostStored)
		hostStored = func() {
			if stores++; stores == crashAt {
				sw.Trip()
			}
		}
		if crashAt == 0 {
			sw.Trip()
		} else if torn {
			sw.Arm(1)
		}
		err := st.act(t, bm, ctx)
		want := st.after
		if crashAt >= 0 || torn {
			if err == nil {
				t.Fatalf("crash after %d host stores (torn %v): act succeeded", crashAt, torn)
			}
			want = st.before
		} else if err != nil {
			t.Fatal(err)
		}
		hostStored = func() {}
		bm.Close()
		sw.Arm(0) // power back on
		cfg.PMem.Crash()

		lends, reads := store.lends, store.Device().Stats().ReadOps
		bm, err = Recover(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer bm.Close()
		if store.lends != lends || store.Device().Stats().ReadOps != reads {
			t.Fatalf("Recover made %d Lend calls and %d SSD reads, want none",
				store.lends-lends, store.Device().Stats().ReadOps-reads)
		}
		if err := bm.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		nf := bm.descriptorFor(0).nvmFrame.Load()
		if nf == noFrame {
			t.Fatal("page 0 did not come back in NVM")
		}
		m, word := &bm.nvm.meta[nf], bm.nvm.readWord(nf)
		if (m.lent.Load() != nil) != (word != ssd.AllUnits) || m.diff.Load() != word {
			t.Fatalf("recovered frame: lent %v, mask %#x, word %#x", m.lent.Load() != nil, m.diff.Load(), word)
		}
		if crashAt < 0 && !torn && word != st.word {
			t.Fatalf("recovered mask word %#x, want %#x", word, st.word)
		}
		got := make([]byte, PageSize)
		h, err := bm.FetchPage(ctx, 0, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.ReadAt(ctx, 0, got); err != nil {
			t.Fatal(err)
		}
		h.Release()
		for i := range got {
			tornByte := torn && i >= st.off && i < st.off+st.n && got[i] == st.after[i]
			if got[i] != want[i] && !tornByte {
				t.Fatalf("crash after %d host stores (torn %v): byte %d (unit %d) recovers as %#x, want %#x",
					crashAt, torn, i, i/ssd.UnitSize, got[i], want[i])
			}
		}
		if ok, err := evictNVMCopy(t, bm, ctx, 0); !ok {
			t.Fatal(err)
		}
		if store.units != word {
			t.Fatalf("the recovered frame wrote back units %#x, its word is %#x", store.units, word)
		}
		return stores
	}

	for i, st := range steps {
		t.Run(st.name, func(t *testing.T) {
			stores := run(t, i, -1, false)
			if st.n == 0 {
				return
			}
			if stores == 0 {
				t.Fatal("the write made no host store: its crash points exercise nothing")
			}
			for c := 0; c <= stores; c++ {
				run(t, i, c, false)
			}
			run(t, i, -1, true)
		})
	}
}
