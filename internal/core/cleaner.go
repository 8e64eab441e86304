package core

import (
	"fmt"
	"sync"

	"github.com/spitfire-db/spitfire/internal/obs"
)

// CleanerConfig configures the background page-cleaning / free-list
// replenishment subsystem (DESIGN.md §5-bis).
//
// A per-pool cleaner goroutine (one for DRAM, one for NVM) keeps each pool's
// free list stocked between a low and a high free-frame watermark: it
// pre-selects CLOCK victims in batches, migrates dirty victims down-tier off
// the critical path, and pushes the frozen, clean frames onto the free list.
// A buffer miss then allocates with a near-lock-free free-list pop instead
// of an inline evict-and-write-back. Device latency and bandwidth for
// cleaner traffic are charged to the cleaner's own virtual clock, so the
// shared-bandwidth device model still sees every byte it moves.
//
// The zero value leaves the cleaner DISABLED: core-level users (tests, the
// experiment harness) stay deterministic in simulated time. The spitfire
// facade enables it by default; set Disable there to keep paper-fidelity
// behavior.
type CleanerConfig struct {
	// Enable starts the cleaner goroutines. Takes precedence over Disable.
	Enable bool

	// Disable is consumed by the spitfire facade, whose default is
	// cleaner-on: New/Recover enable the cleaner unless Disable is set.
	// core.New itself only reads Enable.
	Disable bool

	// LowWater and HighWater are free-frame watermarks in frames. The
	// cleaner starts replenishing when a pool's free list drops below
	// LowWater and works until it reaches HighWater. Zero values default to
	// 1/8 and 1/4 of the pool (minimums 1 and 2), clamped to the pool size.
	LowWater, HighWater int

	// BatchSize bounds how many frames the cleaner reclaims between
	// watermark re-checks (default 8).
	BatchSize int
}

// validate rejects explicitly inconsistent watermarks.
func (c CleanerConfig) validate() error {
	if c.Enable && c.LowWater > 0 && c.HighWater > 0 && c.HighWater <= c.LowWater {
		return fmt.Errorf("core: cleaner HighWater %d must exceed LowWater %d", c.HighWater, c.LowWater)
	}
	return nil
}

// watermarks resolves the configured watermarks against a pool's size.
func (c CleanerConfig) watermarks(nFrames int) (low, high int) {
	low = c.LowWater
	if low <= 0 {
		low = nFrames / 8
	}
	if low < 1 {
		low = 1
	}
	high = c.HighWater
	if high <= 0 {
		high = nFrames / 4
	}
	if high <= low {
		high = low + 1
	}
	if high > nFrames {
		high = nFrames
	}
	if low >= high {
		low = high - 1
	}
	if low < 1 {
		low = 1
	}
	return low, high
}

// cleaner is one pool's background page cleaner.
type cleaner struct {
	pool *basePool

	low, high int
	batch     int

	// ctx is the cleaner's private worker context: all device costs of
	// pre-cleaning are charged to this clock, which shares every device's
	// bandwidth horizon with the foreground workers.
	ctx *Ctx

	// kick is the cleaner's only wake-up (see wake); its payload is the
	// kicker's home shard. Only allocation drains a free list, so an idle
	// pool costs no wakeups; a replenish that stalled on an all-pinned pool
	// is re-armed by the next allocation's kick, and until then allocation
	// evicts inline.
	kick     chan int32
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// startCleaners launches the DRAM and NVM pools' cleaner goroutines if the
// manager's cleaner config enables them (mini frames are reclaimed inline
// only). Recovery calls it after the arena scan so the cleaners never race
// the free-list rebuild.
func (bm *BufferManager) startCleaners() {
	cc := bm.cfg.Cleaner
	if !cc.Enable {
		return
	}
	// NVM first: the DRAM cleaner's write-backs allocate NVM frames and so
	// read bm.nvm.cleaner, which must be set before that goroutine starts.
	if bm.nvm != nil {
		bm.nvm.cleaner = newCleaner(&bm.nvm.basePool, cc, 0x4E7EC1EA)
	}
	if bm.dram != nil {
		bm.dram.cleaner = newCleaner(&bm.dram.basePool, cc, 0xD7A3C1EA)
	}
}

func newCleaner(pool *basePool, cc CleanerConfig, seed uint64) *cleaner {
	low, high := cc.watermarks(pool.nFrames)
	batch := cc.BatchSize
	if batch <= 0 {
		batch = 8
	}
	c := &cleaner{
		pool: pool,
		low:  low, high: high, batch: batch,
		ctx:  NewCtx(seed),
		kick: make(chan int32, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	// Mark the context so write-back admission can apply the cleaner bias
	// (route dirty DRAM pages through the NVM admission queue instead of
	// the Nw coin, so only pages with repeated eviction pressure land).
	c.ctx.cleaner = true
	if o := pool.bm.obs; o != nil {
		c.ctx.ring = o.NewRing("cleaner-" + pool.tier.String())
		c.ctx.ringInit = true
	}
	go c.run()
	return c
}

// wake nudges the cleaner without blocking; allocators call it when a free
// list runs low or empty, passing their home shard so replenishment sweeps
// the starved shard first.
func (c *cleaner) wake(si int) {
	select {
	case c.kick <- int32(si):
	default:
	}
}

// close stops the cleaner and waits for its goroutine to exit. It is
// idempotent so Close can race a cleaner that already shut itself down (the
// NVM cleaner exits on its own when its tier permanently fails), and a no-op
// on the nil cleaner of a pool that runs without one.
func (c *cleaner) close() {
	if c == nil {
		return
	}
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

func (c *cleaner) run() {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			return
		case si := <-c.kick:
			c.pool.bm.count(c.ctx.Clock, cCleanerWakeups)
			if c.pool.failed.Load() {
				// The tier failed permanently: there is nothing left to clean
				// and nothing will allocate from this pool again.
				return
			}
			c.replenish(int(si))
		}
	}
}

// replenish reclaims frames in batches until the free list reaches the high
// watermark. It gives up (counting a stall) when a full batch of victim
// attempts makes no progress — every frame pinned or under migration — and
// leaves the foreground fallback path to cover the pool until pins drain.
// The victim sweep starts at shard si, the kicker's home, and rotates across
// all shard hands as attempts accumulate.
func (c *cleaner) replenish(si int) {
	p := c.pool
	bm := p.bm
	for p.freeCount() < c.high {
		select {
		case <-c.stop:
			return
		default:
		}
		var bStart int64
		if bm.obs != nil {
			bStart = c.ctx.Clock.Now()
		}
		produced := 0
		attempts := c.batch*2 + p.nFrames
		for produced < c.batch && attempts > 0 && p.freeCount() < c.high {
			attempts--
			v, evicted, err := p.reclaim(c.ctx, si+attempts)
			if err != nil || v == noFrame {
				// An I/O error already exhausted its retries and, if
				// permanent, degraded the tier; the no-progress bailout below
				// keeps a failing device from spinning the cleaner, and
				// allocation falls back to foreground eviction where the
				// error surfaces to the caller.
				continue
			}
			if evicted {
				p.count(c.ctx.Clock.Worker(), p.st.cleaned)
			}
			p.release(v)
			produced++
		}
		if produced == 0 {
			bm.count(c.ctx.Clock, cCleanerStalls)
			return
		}
		bm.count(c.ctx.Clock, cCleanerBatches)
		if bm.obs != nil {
			now := c.ctx.Clock.Now()
			bm.hCleanerBatch.Observe(now - bStart)
			c.ctx.ring.Emit(obs.Event{
				TS: now, Dur: now - bStart,
				Type: obs.EvCleanerBatch, From: p.tier,
				Page: obs.NoPage, Arg: int64(produced),
			})
		}
	}
}

// Close stops the background cleaners (if any). The manager remains usable:
// allocation falls back to inline eviction, exactly as with the cleaner
// disabled. Close is idempotent, safe to call concurrently (later callers
// block until the first finishes), and safe on a nil receiver — so callers
// can unconditionally Close whatever a failed Recover returned.
func (bm *BufferManager) Close() {
	if bm == nil {
		return
	}
	bm.closeOnce.Do(func() {
		if bm.dram != nil {
			bm.dram.cleaner.close()
		}
		if bm.nvm != nil {
			bm.nvm.cleaner.close()
		}
	})
}
