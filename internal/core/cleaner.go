package core

import (
	"sync"

	"github.com/spitfire-db/spitfire/internal/obs"
)

// cleanerBatch bounds how many frames the cleaner reclaims between
// watermark re-checks.
const cleanerBatch = 8

// watermarks are a pool's free-frame watermarks: the cleaner starts
// replenishing when the free list drops below low and works until it reaches
// high. They are 1/8 and 3/16 of the pool (minimums 1 and 2), clamped to the
// pool size.
func watermarks(nFrames int) (low, high int) {
	low = max(nFrames/8, 1)
	high = min(max(nFrames*3/16, low+1), nFrames)
	return max(min(low, high-1), 1), high
}

// cleaner is one pool's page cleaner. New builds one for the DRAM pool and
// one for the NVM pool (mini frames are reclaimed inline only); each keeps
// its pool's free list stocked between a low and a high free-frame watermark
// (1/8 and 3/16 of the pool, see watermarks): it pre-selects CLOCK victims in
// batches of cleanerBatch, migrates dirty victims down-tier off the critical
// path, and pushes the frozen, clean frames onto the free list. A buffer miss
// then allocates with a near-lock-free free-list pop instead of an inline
// evict-and-write-back. Device latency and bandwidth for cleaner traffic are
// charged to the cleaner's own virtual clock, so the shared-bandwidth device
// model still sees every byte it moves.
//
// Two loops run the same batches: a goroutine per cleaner once
// StartCleaners is called (run), or the caller's own goroutine through
// StepCleaners, which the experiment harness interleaves with its workers
// in virtual-clock order.
type cleaner struct {
	pool *basePool

	low, high int

	// ctx is the cleaner's private worker context: all device costs of
	// pre-cleaning are charged to this clock, which shares every device's
	// bandwidth horizon with the foreground workers.
	ctx *Ctx

	// kick is the cleaner's only wake-up (see wake). Only allocation drains a
	// free list, so an idle pool costs no wakeups; a replenish that stalled
	// on an all-pinned pool is re-armed by the next allocation's kick, and
	// until then allocation evicts inline.
	kick chan struct{}

	// kicked and awake are the stepped loop's state (StepCleaners). kicked:
	// the earliest end of an operation whose kick the cleaner has taken but
	// not yet acted on, or -1. awake: the cleaner woke and has not parked
	// since.
	kicked int64
	awake  bool

	// startOnce runs the goroutine, or, when close claims it first, marks
	// that none will run; done is closed when no goroutine is left.
	startOnce sync.Once
	stop      chan struct{}
	stopOnce  sync.Once
	done      chan struct{}
}

func newCleaner(pool *basePool, seed uint64) *cleaner {
	low, high := watermarks(pool.nFrames)
	c := &cleaner{
		pool: pool,
		low:  low, high: high,
		ctx:    NewCtx(seed),
		kick:   make(chan struct{}, 1),
		kicked: -1,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if o := pool.bm.obs; o != nil {
		c.ctx.ring = o.NewRing("cleaner-" + pool.tier.String())
		c.ctx.ringInit = true
	}
	return c
}

// newCleaners builds the DRAM and NVM pools' cleaners, NVM first in
// bm.cleaners: on a virtual-clock tie StepCleaners runs the NVM cleaner
// before the DRAM cleaner.
func (bm *BufferManager) newCleaners() {
	if bm.nvm != nil {
		bm.nvm.cleaner = newCleaner(&bm.nvm.basePool, 0x4E7EC1EA)
		bm.cleaners = append(bm.cleaners, bm.nvm.cleaner)
	}
	if bm.dram != nil {
		bm.dram.cleaner = newCleaner(&bm.dram.basePool, 0xD7A3C1EA)
		bm.cleaners = append(bm.cleaners, bm.dram.cleaner)
	}
}

// StartCleaners runs each pool's cleaner on a goroutine of its own, the way
// a live process keeps its free lists stocked. It starts each goroutine
// once, is safe to call concurrently, and starts nothing after Close.
// Recovery flows audit the recovered manager (CheckConsistency) before
// calling it.
func (bm *BufferManager) StartCleaners() {
	bm.started.Store(true)
	for _, c := range bm.cleaners {
		c.startOnce.Do(func() { go c.run() })
	}
}

// StepCleaners runs the cleaners on the caller's goroutine, between the
// caller's operations, instead of on StartCleaners' goroutines. end is the
// virtual time at which the caller's last operation ended, and limit the
// earliest clock among its workers.
//
// First each cleaner takes its pending allocator kick, sent by an operation
// that ended at end. A parked cleaner wakes, counts a wakeup as run does, and
// raises its clock to end; an awake one keeps the kick until it parks, as run
// takes a kick sent during replenish right after it. Then the awake
// cleaners run one batch at a time, the earliest clock first (NVM before
// DRAM on a tie), while that clock is at or before limit. A cleaner parks
// when its pool reaches the high watermark or a batch makes no progress, as
// replenish does; the kicks a batch sends are taken at its end.
//
// It panics once StartCleaners has run: the goroutines own the cleaners.
func (bm *BufferManager) StepCleaners(end, limit int64) {
	if bm.started.Load() {
		panic("core: StepCleaners on a manager whose cleaners run on goroutines")
	}
	bm.takeKicks(end)
	for {
		var next *cleaner
		for _, c := range bm.cleaners {
			if c.awake && c.ctx.Clock.Now() <= limit && (next == nil || c.ctx.Clock.Now() < next.ctx.Clock.Now()) {
				next = c
			}
		}
		if next == nil {
			return
		}
		next.awake = next.batch()
		bm.takeKicks(next.ctx.Clock.Now())
	}
}

// takeKicks takes each cleaner's pending kick, sent by an operation that
// ended at now, and wakes the parked cleaners that have one (StepCleaners).
func (bm *BufferManager) takeKicks(now int64) {
	for _, c := range bm.cleaners {
		select {
		case <-c.kick:
			if c.kicked < 0 || now < c.kicked {
				c.kicked = now
			}
		default:
		}
		if !c.awake && c.kicked >= 0 {
			c.ctx.Clock.AdvanceTo(c.kicked)
			c.kicked = -1
			c.awake = c.woken()
		}
	}
}

// wake nudges the cleaner without blocking; allocators call it when the free
// list runs low or empty.
func (c *cleaner) wake() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// woken counts the wakeup a kick caused and reports whether there is work:
// after the tier failed permanently there is nothing left to clean and
// nothing will allocate from this pool again.
func (c *cleaner) woken() bool {
	c.pool.bm.count(c.ctx.Clock, cCleanerWakeups)
	return !c.pool.failed.Load()
}

// close stops the cleaner and waits for its goroutine, if one started, to
// exit. Close can race a cleaner that already shut itself down: the NVM
// cleaner exits on its own when its tier permanently fails.
func (c *cleaner) close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.startOnce.Do(func() { close(c.done) }) // never started: none to wait for
	<-c.done
}

func (c *cleaner) run() {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			return
		case <-c.kick:
			if !c.woken() {
				return
			}
			c.replenish()
		}
	}
}

// replenish runs batches until the free list reaches the high watermark, a
// batch makes no progress, or the cleaner is stopped.
func (c *cleaner) replenish() {
	for {
		select {
		case <-c.stop:
			return
		default:
		}
		if !c.batch() {
			return
		}
	}
}

// batch reclaims up to cleanerBatch frames onto the free list and reports
// whether the cleaner should go on: false once the free list is at the high
// watermark, or when a full batch of victim attempts made no progress —
// every frame pinned or under migration — which counts a stall and leaves
// the foreground fallback path to cover the pool until pins drain.
func (c *cleaner) batch() bool {
	p := c.pool
	bm := p.bm
	if p.freeCount() >= c.high {
		return false
	}
	var bStart int64
	if bm.obs != nil {
		bStart = c.ctx.Clock.Now()
	}
	produced := 0
	attempts := cleanerBatch*2 + p.nFrames
	for produced < cleanerBatch && attempts > 0 && p.freeCount() < c.high {
		attempts--
		v, evicted, err := p.reclaim(c.ctx)
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
		p.release(c.ctx.holder(), v)
		produced++
	}
	if produced == 0 {
		bm.count(c.ctx.Clock, cCleanerStalls)
		return false
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
	return p.freeCount() < c.high
}

// Close stops the cleaners and waits for their goroutines, if they were
// started. The manager remains usable: allocation falls back to inline
// eviction. Close is idempotent, safe to call concurrently (later callers
// block until the first finishes), and safe on a nil receiver — so callers
// can unconditionally Close whatever a failed Recover returned.
func (bm *BufferManager) Close() {
	if bm == nil {
		return
	}
	bm.closeOnce.Do(func() {
		for _, c := range bm.cleaners {
			c.close()
		}
	})
}
