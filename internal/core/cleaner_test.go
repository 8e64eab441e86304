package core

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"github.com/spitfire-db/spitfire/internal/lockcheck"
	"github.com/spitfire-db/spitfire/internal/policy"
)

// cleanerBM builds a manager with its cleaners running on goroutines.
func cleanerBM(t *testing.T, dramFrames, nvmFrames int) *BufferManager {
	t.Helper()
	bm := newBM(t, Config{
		DRAMBytes: int64(dramFrames) * PageSize,
		NVMBytes:  int64(nvmFrames) * nvmFrameSlot,
		Policy:    policy.SpitfireLazy,
	})
	bm.StartCleaners()
	t.Cleanup(bm.Close)
	return bm
}

// waitFor polls cond until it holds or the deadline passes. The lockcheck
// build pays a shadow-stack bookkeeping cost on every latch, so its wall
// deadline is proportionally longer.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	budget := 5 * time.Second
	if lockcheck.Enabled {
		budget = 30 * time.Second
	}
	deadline := time.Now().Add(budget)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestCleanerWatermarkReplenish drives the free list to empty and checks the
// watermark protocol: the cleaner refills to the high watermark, then idles
// above it. Twenty frames put the marks at 2 and 3.
func TestCleanerWatermarkReplenish(t *testing.T) {
	const frames = 20
	bm := cleanerBM(t, frames, 0)
	if c := bm.dram.cleaner; c.low != 2 || c.high != 3 {
		t.Fatalf("watermarks of %d frames = %d..%d, want 2..3", frames, c.low, c.high)
	}
	ctx := NewCtx(1)
	page := make([]byte, PageSize)
	for pid := PageID(0); pid < 64; pid++ {
		if err := bm.SeedPage(ctx, pid, page); err != nil {
			t.Fatal(err)
		}
	}
	// Churn through far more pages than the pool holds, draining the free
	// list; the cleaner replenishes concurrently.
	for pid := PageID(0); pid < 64; pid++ {
		h, err := bm.FetchPage(ctx, pid, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	// The churn's organic kicks race the replenisher: its last batch can
	// finish mid-churn and leave the list idling in [low, high), which is
	// legal under the hysteresis protocol. One explicit post-churn kick
	// makes the refill-to-high assertion deterministic.
	bm.dram.cleaner.wake()
	waitFor(t, "free list to reach the high watermark", func() bool {
		return bm.dram.freeCount() >= 3
	})
	// Above the high watermark the cleaner must idle: batch and cleaned
	// counters stop moving.
	st := bm.Stats()
	time.Sleep(5 * time.Millisecond)
	st2 := bm.Stats()
	if st2.CleanerBatches != st.CleanerBatches || st2.CleanerCleanedDRAM != st.CleanerCleanedDRAM {
		t.Fatalf("cleaner kept working above the high watermark: %+v -> %+v", st, st2)
	}
	if got := bm.dram.freeCount(); got < 3 || got > frames {
		t.Fatalf("free list holds %d frames, want within [3, %d]", got, frames)
	}
	if st2.CleanerCleanedDRAM == 0 {
		t.Fatal("cleaner never pre-cleaned a frame")
	}
}

// TestCleanerStallsWhenAllPinned pins every frame and checks the cleaner
// records a stall instead of spinning or evicting pinned pages. A stalled
// cleaner parks until an allocation kicks it: after the pins drain, one miss
// is enough for the pool to be replenished. Two frames put the marks at
// frames-1 and frames, so every allocation kicks the cleaner.
func TestCleanerStallsWhenAllPinned(t *testing.T) {
	const frames = 2
	bm := cleanerBM(t, frames, 0)
	if c := bm.dram.cleaner; c.low != frames-1 || c.high != frames {
		t.Fatalf("watermarks of %d frames = %d..%d, want %d..%d", frames, c.low, c.high, frames-1, frames)
	}
	ctx := NewCtx(1)
	page := make([]byte, PageSize)
	for pid := PageID(0); pid <= frames; pid++ {
		if err := bm.SeedPage(ctx, pid, page); err != nil {
			t.Fatal(err)
		}
	}
	handles := make([]*Handle, 0, frames)
	for pid := PageID(0); pid < frames; pid++ {
		h, err := bm.FetchPage(ctx, pid, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	waitFor(t, "a cleaner stall with every frame pinned", func() bool {
		return bm.Stats().CleanerStalls > 0
	})
	for _, h := range handles {
		h.Release()
	}
	// The miss finds the free list empty, kicks the cleaner and evicts
	// inline. (A kick left over from the pinning phase may already have
	// refilled the pool; the miss then pops a frame and leaves frames-1.)
	h, err := bm.FetchPage(ctx, frames, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	waitFor(t, "replenish after pins drain and one miss", func() bool {
		return bm.dram.freeCount() >= frames-1
	})
}

// TestCleanerIdleMakesNoWakeups: allocator kicks are the cleaners' only
// wake-up, so a warmed pool that nobody allocates from costs exactly zero
// wakeups, and the next churny burst wakes them again.
func TestCleanerIdleMakesNoWakeups(t *testing.T) {
	const pages = 64
	bm := cleanerBM(t, 8, 24)
	ctx := NewCtx(1)
	seed(t, bm, pages)
	churn := func() {
		for pid := PageID(0); pid < pages; pid++ {
			h, err := bm.FetchPage(ctx, pid, WriteIntent)
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
		}
	}
	churn()
	// Warm and settled: the churn's kicks were served, both free lists are
	// past their high watermarks, no kick is still queued, and the last
	// wakeup's count has landed.
	bm.dram.cleaner.wake()
	waitFor(t, "both pools above their high watermarks with no kick pending", func() bool {
		d, n := bm.dram.cleaner, bm.nvm.cleaner
		return bm.Stats().CleanerWakeups > 0 &&
			bm.dram.freeCount() >= d.high && bm.nvm.freeCount() >= n.high &&
			len(d.kick) == 0 && len(n.kick) == 0
	})
	time.Sleep(5 * time.Millisecond)

	before := bm.Stats().CleanerWakeups
	time.Sleep(100 * time.Millisecond)
	if delta := bm.Stats().CleanerWakeups - before; delta != 0 {
		t.Fatalf("idle pool woke its cleaners %d times in 100 ms, want 0", delta)
	}
	churn()
	waitFor(t, "a churny burst after the idle period to wake a cleaner", func() bool {
		return bm.Stats().CleanerWakeups > before
	})
}

// TestForegroundFallbackWhenCleanerStalled checks that allocation still
// succeeds — via inline eviction — when the cleaner never runs (its
// goroutine was not started, so kicks go nowhere), and that the fallback
// counter records the inline work.
func TestForegroundFallbackWhenCleanerStalled(t *testing.T) {
	bm := newBM(t, Config{DRAMBytes: 8 * PageSize, Policy: policy.SpitfireLazy})
	ctx := NewCtx(1)
	page := make([]byte, PageSize)
	for pid := PageID(0); pid < 64; pid++ {
		if err := bm.SeedPage(ctx, pid, page); err != nil {
			t.Fatal(err)
		}
	}
	for pid := PageID(0); pid < 64; pid++ {
		h, err := bm.FetchPage(ctx, pid, ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if st := bm.Stats(); st.ForegroundEvicts == 0 {
		t.Fatal("no foreground evictions with the cleaner stalled")
	}
}

// TestCleanerInvariantsConcurrent runs concurrent writers and readers with
// both cleaners active (run it under -race): afterwards every page must hold
// the last value its writer stored (no page lost, no torn migration) and
// every frame's pin count must have drained.
func TestCleanerInvariantsConcurrent(t *testing.T) {
	const (
		workers = 4
		pages   = 96
		ops     = 1500
	)
	bm := cleanerBM(t, 8, 24)
	seedCtx := NewCtx(1)
	page := make([]byte, PageSize)
	for pid := PageID(0); pid < pages; pid++ {
		binary.LittleEndian.PutUint64(page, uint64(pid)<<32)
		if err := bm.SeedPage(seedCtx, pid, page); err != nil {
			t.Fatal(err)
		}
	}

	// Each page has exactly one writer (pid % workers), so the expected
	// final value is deterministic per page. Same-page accesses are
	// serialized with per-page locks — the buffer manager hands out
	// concurrent handles to one page by design and leaves record-level
	// concurrency control to the engine, so the test must play that role or
	// its own reads race its writes.
	shadow := make([]uint64, pages)
	pageLocks := make([]sync.Mutex, pages)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := NewCtx(uint64(w) + 10)
			rng := uint64(w)*2654435761 + 99
			var buf [8]byte
			for i := 0; i < ops; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				pid := PageID((rng >> 33) % pages)
				if pid%workers == PageID(w) {
					val := uint64(pid)<<32 | uint64(i+1)
					pageLocks[pid].Lock()
					h, err := bm.FetchPage(ctx, pid, WriteIntent)
					if err != nil {
						pageLocks[pid].Unlock()
						errs <- err
						return
					}
					binary.LittleEndian.PutUint64(buf[:], val)
					err = h.WriteAt(ctx, 0, buf[:])
					h.Release()
					if err == nil {
						shadow[pid] = val // single writer per page
					}
					pageLocks[pid].Unlock()
					if err != nil {
						errs <- err
						return
					}
				} else {
					pageLocks[pid].Lock()
					h, err := bm.FetchPage(ctx, pid, ReadIntent)
					if err != nil {
						pageLocks[pid].Unlock()
						errs <- err
						return
					}
					err = h.ReadAt(ctx, 0, buf[:])
					h.Release()
					pageLocks[pid].Unlock()
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	bm.Close()

	// No page lost, no stale copy served: every page readable with the last
	// written value (or its seed value if never written).
	checkCtx := NewCtx(7)
	var buf [8]byte
	for pid := PageID(0); pid < pages; pid++ {
		h, err := bm.FetchPage(checkCtx, pid, ReadIntent)
		if err != nil {
			t.Fatalf("page %d unfetchable: %v", pid, err)
		}
		if err := h.ReadAt(checkCtx, 0, buf[:]); err != nil {
			t.Fatal(err)
		}
		h.Release()
		want := shadow[pid]
		if want == 0 {
			want = uint64(pid) << 32
		}
		if got := binary.LittleEndian.Uint64(buf[:]); got != want {
			t.Fatalf("page %d = %#x, want %#x", pid, got, want)
		}
	}
	// Pin counts drained: every frame is either resident-unpinned (0) or
	// free/frozen (-1).
	for i := range bm.dram.meta {
		if p := bm.dram.meta[i].pins.Load(); p > 0 {
			t.Fatalf("DRAM frame %d still pinned (%d)", i, p)
		}
	}
	for i := range bm.nvm.meta {
		if p := bm.nvm.meta[i].pins.Load(); p > 0 {
			t.Fatalf("NVM frame %d still pinned (%d)", i, p)
		}
	}
}

// TestCleanerAdmitsByTheForegroundRule evicts the same dirty pages from a
// foreground Ctx and from a DRAM cleaner's own Ctx, seeded alike, in two
// managers built alike, and requires the same NVM admission decision for
// every page: who evicts must not change where a page goes. Coin mode
// (Nw = 0.5) must draw a mix of both outcomes; queue mode denies each page
// its first eviction and admits its second.
func TestCleanerAdmitsByTheForegroundRule(t *testing.T) {
	const pages = 16
	// decisions builds a manager (whose cleaners do not run), dirties each
	// page and evicts its DRAM frame on the foreground's or the DRAM
	// cleaner's Ctx, rounds times, and reports per eviction whether the
	// page entered NVM. Nr = 0 keeps the read path off NVM, so a page has
	// no NVM copy until an eviction admits it.
	decisions := func(pol policy.Policy, rounds int, onCleaner bool) []bool {
		bm := newBM(t, Config{
			DRAMBytes: 2 * pages * PageSize,
			NVMBytes:  4 * pages * nvmFrameSlot,
			Policy:    pol,
		})
		cl := bm.dram.cleaner
		ctx := cl.ctx
		if !onCleaner {
			ctx = NewCtx(0)
			*ctx.RNG = *cl.ctx.RNG
		}
		seed(t, bm, pages)
		setup := NewCtx(7)
		var got []bool
		for r := 0; r < rounds; r++ {
			for pid := uint64(0); pid < pages; pid++ {
				h, err := bm.FetchPage(setup, pid, WriteIntent)
				if err != nil {
					t.Fatal(err)
				}
				if err := h.WriteAt(setup, 0, []byte{byte(r)}); err != nil {
					t.Fatal(err)
				}
				h.Release()
				d := bm.table.Get(pid)
				f := d.dramFrame.Load()
				if !bm.dram.meta[f].tryFreeze() {
					t.Fatalf("page %d: DRAM frame %d is pinned", pid, f)
				}
				if ok, err := bm.dram.evict(ctx, f); !ok || err != nil {
					t.Fatalf("page %d: evict = %v, %v", pid, ok, err)
				}
				bm.dram.release(ctx.holder(), f)
				got = append(got, d.nvmFrame.Load() != noFrame)
			}
		}
		return got
	}

	coin := policy.Policy{Dr: 1, Dw: 1, Nr: 0, Nw: 0.5}
	fg, cl := decisions(coin, 1, false), decisions(coin, 1, true)
	admitted := 0
	for i := range fg {
		if fg[i] != cl[i] {
			t.Fatalf("coin mode: page %d admitted = %v from the foreground, %v from the cleaner", i, fg[i], cl[i])
		}
		if fg[i] {
			admitted++
		}
	}
	if admitted == 0 || admitted == pages {
		t.Fatalf("coin mode: %d of %d pages admitted at Nw = 0.5, want a mix", admitted, pages)
	}

	queue := policy.Policy{Dr: 1, Dw: 1, Nr: 0, Nw: 1, NwMode: policy.NwAdmissionQueue}
	fg, cl = decisions(queue, 2, false), decisions(queue, 2, true)
	for i := range fg {
		want := i >= pages // denied on its first eviction, admitted on its second
		if fg[i] != want || cl[i] != want {
			t.Fatalf("queue mode: eviction %d admitted = %v from the foreground, %v from the cleaner, want %v",
				i, fg[i], cl[i], want)
		}
	}
}

// closeWithin requires bm.Close to return within a few seconds.
func closeWithin(t *testing.T, bm *BufferManager) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		bm.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}

// TestStartCleanersStartsOnce: two concurrent StartCleaners calls start one
// goroutine per pool. One kick to each pool wakes each once, and Close,
// which waits for the goroutines, returns; a second goroutine per pool
// would close its cleaner's done channel twice and panic.
func TestStartCleanersStartsOnce(t *testing.T) {
	bm := newBM(t, Config{Policy: policy.SpitfireLazy})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bm.StartCleaners()
		}()
	}
	wg.Wait()
	for _, c := range bm.cleaners {
		c.wake()
	}
	waitFor(t, "a wakeup in each pool", func() bool { return bm.Stats().CleanerWakeups >= 2 })
	time.Sleep(10 * time.Millisecond)
	if n := bm.Stats().CleanerWakeups; n != 2 {
		t.Fatalf("one kick to each of two pools counted %d wakeups, want 2", n)
	}
	closeWithin(t, bm)
}

// TestCloseWithoutStartedCleaners: Close returns on a manager whose cleaners
// never started, as the harness's never do, and a StartCleaners after Close
// starts nothing.
func TestCloseWithoutStartedCleaners(t *testing.T) {
	bm := newBM(t, Config{Policy: policy.SpitfireLazy})
	closeWithin(t, bm)
	bm.StartCleaners()
	for _, c := range bm.cleaners {
		c.wake()
	}
	time.Sleep(20 * time.Millisecond)
	if n := bm.Stats().CleanerWakeups; n != 0 {
		t.Fatalf("StartCleaners after Close counted %d wakeups, want 0", n)
	}
}

// TestStepCleanersPanicsOnceStarted: stepping a manager whose cleaners run
// on goroutines would run each cleaner's batches on two goroutines at once.
func TestStepCleanersPanicsOnceStarted(t *testing.T) {
	bm := newBM(t, Config{Policy: policy.SpitfireLazy})
	bm.StepCleaners(0, 0) // never started: steps
	bm.StartCleaners()
	defer bm.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("StepCleaners after StartCleaners did not panic")
		}
	}()
	bm.StepCleaners(0, 0)
}

// TestRecoveredCleanersWaitForStart: a recovered manager's cleaners stay
// parked, however many kicks its allocations send, until StartCleaners.
func TestRecoveredCleanersWaitForStart(t *testing.T) {
	const pages = 32
	cfg, pm, _ := crashConfig(8)
	bm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed(t, bm, pages)
	ctx := NewCtx(1)
	churn := func(bm *BufferManager) {
		for pid := PageID(0); pid < 2*pages; pid++ {
			// A miss installs the page in NVM and the second fetch takes it
			// on to DRAM, so both pools allocate.
			h, err := bm.FetchPage(ctx, pid/2, WriteIntent)
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
		}
	}
	churn(bm)
	bm.Close()
	pm.Crash()

	bm2, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bm2.Close()
	churn(bm2)
	time.Sleep(20 * time.Millisecond)
	if st := bm2.Stats(); st.CleanerWakeups != 0 || st.CleanerBatches != 0 {
		t.Fatalf("recovered cleaners ran before StartCleaners: %d wakeups, %d batches", st.CleanerWakeups, st.CleanerBatches)
	}
	if len(bm2.dram.cleaner.kick) == 0 || len(bm2.nvm.cleaner.kick) == 0 {
		t.Fatal("the churn sent no kick to one of the cleaners; the test proves nothing")
	}
	bm2.StartCleaners()
	waitFor(t, "the pending kicks to wake both cleaners", func() bool {
		return bm2.Stats().CleanerWakeups >= 2
	})
}
