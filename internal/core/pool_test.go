package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spitfire-db/spitfire/internal/lockcheck"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// TestReleaseFreezeInvariant checks the debug assert: pushing a frame that
// is not frozen (pins != -1) onto a free list panics under -tags lockcheck.
func TestReleaseFreezeInvariant(t *testing.T) {
	if !lockcheck.Enabled {
		t.Skip("freeze-invariant assert compiled in only with -tags lockcheck")
	}
	var p basePool
	p.init(4, new(bmStats), dramStats)
	var h lockcheck.Holder
	f, ok := p.takeFree(&h)
	if !ok {
		t.Fatal("takeFree failed")
	}
	p.meta[f].pins.Store(1) // pinned, not frozen
	defer func() {
		if recover() == nil {
			t.Fatal("release of a pinned frame did not panic")
		}
	}()
	p.release(&h, f)
}

// TestShardedPoolConcurrent hammers one free list per pool with more workers
// than the DRAM pool has spare frames: cleaner refills race foreground
// eviction and every allocator contends on the same freeMu. The pool sizes
// put both pools' watermarks at 2 and 4 free frames. Run with -race;
// correctness is "no data race, no lost frames, no leaked pins, free
// accounting intact".
func TestShardedPoolConcurrent(t *testing.T) {
	const (
		dramFrames = 16
		nvmFrames  = 19
		pages      = 128
		workers    = 8
		opsPer     = 400
	)
	bm := newBM(t, Config{
		DRAMBytes: dramFrames * PageSize,
		NVMBytes:  nvmFrames * nvmFrameSlot,
		Policy:    policy.SpitfireLazy,
	})
	bm.StartCleaners()
	defer bm.Close()
	seed(t, bm, pages)

	// Same-page accesses are serialized with per-page locks: the buffer
	// manager leaves record-level concurrency control to the engine, so the
	// test must play that role or its own reads race its writes.
	var pageLocks [pages]sync.Mutex
	op := func(ctx *Ctx, pid uint64, intent Intent, buf []byte) error {
		pageLocks[pid].Lock()
		defer pageLocks[pid].Unlock()
		h, err := bm.FetchPage(ctx, pid, intent)
		if err != nil {
			return err
		}
		defer h.Release()
		if intent == WriteIntent {
			return h.WriteAt(ctx, 0, buf)
		}
		return h.ReadAt(ctx, 0, buf)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := NewCtx(uint64(w + 1))
			buf := make([]byte, 8)
			for i := 0; i < opsPer; i++ {
				intent := ReadIntent
				if i%3 == 0 {
					intent = WriteIntent
				}
				if err := op(ctx, uint64(ctx.RNG.Intn(pages)), intent, buf); err != nil {
					errs <- fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Stop the cleaners so the accounting checks below see a quiesced pool
	// (Close is idempotent; the deferred call becomes a no-op).
	bm.Close()

	checkNoLeakedPins(t, bm)

	// Quiesced free accounting: the atomic depth must equal the stack.
	var h lockcheck.Holder
	for _, p := range []*basePool{&bm.dram.basePool, &bm.nvm.basePool} {
		p.lockFree(&h)
		n := len(p.free)
		p.unlockFree(&h)
		if got := p.freeCount(); got != n {
			t.Fatalf("%s: freeCount() = %d but the free stack holds %d", p.tier, got, n)
		}
	}
}

// TestWorkerIdentityLeavesNoState creates and drops 10k worker contexts — a
// server's per-request contexts — allocating through each once, and checks
// the manager remembers none of them: every context's clock becomes
// collectable. (Keyed affinity tables used to pin one clock per context
// forever.)
func TestWorkerIdentityLeavesNoState(t *testing.T) {
	const (
		workers = 10000
		pages   = 64
	)
	bm := newBM(t, Config{
		DRAMBytes: 16 * PageSize,
		NVMBytes:  32 * nvmFrameSlot,
		Policy:    policy.SpitfireLazy,
	})
	defer bm.Close()
	seed(t, bm, pages)

	var collected atomic.Int64
	for i := 0; i < workers; i++ {
		ctx := NewCtx(uint64(i))
		runtime.SetFinalizer(ctx.Clock, func(*vclock.Clock) { collected.Add(1) })
		h, err := bm.FetchPage(ctx, uint64(i%pages), ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	// Finalizers run on their own goroutine after a collection; allow a few
	// cycles. The last context may still be live on this goroutine's stack.
	for try := 0; try < 50 && collected.Load() < workers-1; try++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got < workers-1 {
		t.Fatalf("only %d of %d dropped worker clocks were collected: something retains per-context state", got, workers)
	}
}
