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

// TestNormalizePoolShards pins the clamp rules: at least one shard, at most
// maxPoolShards, and at least two frames per shard.
func TestNormalizePoolShards(t *testing.T) {
	cases := []struct {
		shards, nFrames, want int
	}{
		{0, 64, 1},                 // zero means single-shard (deterministic default)
		{1, 64, 1},                 // explicit single shard
		{4, 64, 4},                 // plain case
		{4, 4, 2},                  // ≥2 frames per shard: 4 frames cap at 2 shards
		{100, 1000, maxPoolShards}, // hard cap
		{8, 1, 1},                  // one frame: one shard
		{-3, 64, 1},                // negative treated as unset
	}
	for _, c := range cases {
		if got := normalizePoolShards(c.shards, c.nFrames); got != c.want {
			t.Errorf("normalizePoolShards(%d, %d) = %d, want %d", c.shards, c.nFrames, got, c.want)
		}
	}
}

// TestShardPartitionCoversPool checks the frame partition: every frame maps
// to exactly one shard whose [lo, hi) range contains it, and the per-shard
// free lists jointly hold every frame exactly once at start-up.
func TestShardPartitionCoversPool(t *testing.T) {
	for _, nFrames := range []int{2, 7, 8, 64, 65} {
		for _, shards := range []int{1, 2, 3, 4} {
			var p basePool
			p.init(nFrames, shards, new(bmStats), dramStats)
			seen := make(map[int32]int)
			for si := range p.shards {
				sh := &p.shards[si]
				for _, f := range sh.free {
					seen[f]++
					if f < sh.lo || f >= sh.hi {
						t.Fatalf("frames=%d shards=%d: frame %d on shard %d outside [%d,%d)", nFrames, shards, f, si, sh.lo, sh.hi)
					}
					if got := p.shardOf(f); got != sh {
						t.Fatalf("frames=%d shards=%d: shardOf(%d) does not return home shard", nFrames, shards, f)
					}
				}
			}
			if len(seen) != nFrames {
				t.Fatalf("frames=%d shards=%d: free lists hold %d distinct frames", nFrames, shards, len(seen))
			}
			for f, n := range seen {
				if n != 1 {
					t.Fatalf("frames=%d shards=%d: frame %d appears %d times", nFrames, shards, f, n)
				}
			}
			if got := p.freeCount(); got != nFrames {
				t.Fatalf("frames=%d shards=%d: freeCount() = %d, want %d", nFrames, shards, got, nFrames)
			}
		}
	}
}

// TestTakeFreeStealsFromNeighbor drains one worker's home shard and checks
// that further allocations steal from the other shards rather than failing,
// and that the steal counter records them.
func TestTakeFreeStealsFromNeighbor(t *testing.T) {
	var p basePool
	p.init(8, 4, new(bmStats), dramStats) // 4 shards × 2 frames
	got := make(map[int32]bool)
	for i := 0; i < 8; i++ {
		f, ok := p.takeFree(0)
		if !ok {
			t.Fatalf("takeFree failed on pop %d with %d frames free", i, 8-i)
		}
		if got[f] {
			t.Fatalf("frame %d handed out twice", f)
		}
		got[f] = true
	}
	if _, ok := p.takeFree(0); ok {
		t.Fatal("takeFree succeeded on an empty pool")
	}
	// One worker drained all 4 shards: 2 pops were local, 6 were steals.
	if got := p.stats.at(0).c[cStealsDRAM].Load(); got != 6 {
		t.Fatalf("freeSteals = %d, want 6", got)
	}
	if p.freeCount() != 0 {
		t.Fatalf("freeCount() = %d, want 0", p.freeCount())
	}
	// Releasing routes each frame back to its home shard.
	for f := range got {
		p.release(f)
	}
	for si := range p.shards {
		sh := &p.shards[si]
		if len(sh.free) != 2 {
			t.Fatalf("shard %d has %d free frames after release, want 2", si, len(sh.free))
		}
		for _, f := range sh.free {
			if f < sh.lo || f >= sh.hi {
				t.Fatalf("frame %d released to wrong shard %d [%d,%d)", f, si, sh.lo, sh.hi)
			}
		}
	}
}

// TestWorkerShardAffinity checks that a worker's home shard is fixed by its
// context's creation index and that consecutively created workers spread
// round-robin.
func TestWorkerShardAffinity(t *testing.T) {
	var p basePool
	p.init(16, 4, new(bmStats), dramStats)
	counts := make(map[int]int)
	prev := -1
	for i := 0; i < 8; i++ {
		ctx := NewCtx(uint64(i + 1))
		home := p.home(ctx)
		if again := p.home(ctx); again != home {
			t.Fatalf("worker %d moved shard: %d then %d", i, home, again)
		}
		if prev >= 0 && home != (prev+1)%4 {
			t.Fatalf("worker %d landed on shard %d after shard %d, want round-robin", i, home, prev)
		}
		prev = home
		counts[home]++
	}
	// 8 workers over 4 shards must deal 2 per shard.
	for si := 0; si < 4; si++ {
		if counts[si] != 2 {
			t.Fatalf("shard %d owns %d workers, want 2", si, counts[si])
		}
	}
}

// TestReleaseFreezeInvariant checks the debug assert: pushing a frame that
// is not frozen (pins != -1) onto a free list panics under -tags lockcheck.
func TestReleaseFreezeInvariant(t *testing.T) {
	if !lockcheck.Enabled {
		t.Skip("freeze-invariant assert compiled in only with -tags lockcheck")
	}
	var p basePool
	p.init(4, 2, new(bmStats), dramStats)
	f, ok := p.takeFree(0)
	if !ok {
		t.Fatal("takeFree failed")
	}
	p.meta[f].pins.Store(1) // pinned, not frozen
	defer func() {
		if recover() == nil {
			t.Fatal("release of a pinned frame did not panic")
		}
	}()
	p.release(f)
}

// TestShardedPoolConcurrent hammers a small sharded three-tier manager with
// enough workers that home shards constantly run dry: cross-shard steals and
// cleaner refills race foreground eviction. Run with -race; correctness is
// "no data race, no lost frames, no leaked pins, free accounting intact".
func TestShardedPoolConcurrent(t *testing.T) {
	const (
		dramFrames = 16
		nvmFrames  = 32
		pages      = 128
		workers    = 8
		opsPer     = 400
	)
	bm := newBM(t, Config{
		DRAMBytes: dramFrames * PageSize,
		NVMBytes:  nvmFrames * nvmFrameSlot,
		Policy:    policy.SpitfireLazy,
		Shards:    4,
		Cleaner:   CleanerConfig{Enable: true, LowWater: 2, HighWater: 4},
	})
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

	// 8 workers on 4 shards of 4 DRAM frames churned far more pages than any
	// shard holds; the run must have exercised the steal path.
	st := bm.Stats()
	if st.DRAMFreeSteals+st.NVMFreeSteals == 0 {
		t.Fatal("no cross-shard free-list steals recorded under saturation")
	}

	// Quiesced free accounting: the atomic aggregate must equal the sum of
	// the per-shard stacks.
	for _, p := range []*basePool{&bm.dram.basePool, &bm.nvm.basePool} {
		sum := 0
		for si := range p.shards {
			sh := &p.shards[si]
			p.lockShard(sh)
			sum += len(sh.free)
			p.unlockShard(sh)
		}
		if got := p.freeCount(); got != sum {
			t.Fatalf("freeCount() = %d but shard stacks hold %d", got, sum)
		}
	}
}

// TestWorkerIdentityLeavesNoState creates and drops 10k worker contexts — a
// server's per-request contexts — against a sharded manager, allocating
// through each once, and checks the pools remember none of them: every
// context's clock becomes collectable. (Keyed affinity tables used to pin one
// clock per context forever.) Consecutive workers must also land on
// consecutive shards.
func TestWorkerIdentityLeavesNoState(t *testing.T) {
	const (
		workers = 10000
		pages   = 64
	)
	bm := newBM(t, Config{
		DRAMBytes: 16 * PageSize,
		NVMBytes:  32 * nvmFrameSlot,
		Policy:    policy.SpitfireLazy,
		Shards:    4,
	})
	defer bm.Close()
	seed(t, bm, pages)

	var collected atomic.Int64
	prev := -1
	for i := 0; i < workers; i++ {
		ctx := NewCtx(uint64(i))
		runtime.SetFinalizer(ctx.Clock, func(*vclock.Clock) { collected.Add(1) })
		home := bm.dram.home(ctx)
		if bm.nvm.home(ctx) != home {
			t.Fatalf("worker %d: DRAM home %d but NVM home %d", i, home, bm.nvm.home(ctx))
		}
		if prev >= 0 && home != (prev+1)%4 {
			t.Fatalf("worker %d landed on shard %d after shard %d", i, home, prev)
		}
		prev = home
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
