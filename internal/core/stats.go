package core

import (
	"github.com/spitfire-db/spitfire/internal/metrics"
	"github.com/spitfire-db/spitfire/internal/obs"
)

// bmStats counts the buffer manager's traffic along the data-flow paths of
// Figure 3 plus hit/miss/eviction activity. Every counter has one row in the
// counters table below.
type bmStats struct {
	hitDRAM, hitMini, hitNVM, missSSD metrics.Counter
	migNVMToDRAM, ssdToDRAM, ssdToNVM metrics.Counter
	dramToNVM, dramToSSD, nvmToSSD    metrics.Counter
	fgUnitLoads, miniPromotions       metrics.Counter
	flushedDRAMPages, flushedNVMPages metrics.Counter
	recoveredNVMPages                 metrics.Counter

	// Per-pool counters, bumped through basePool.st. (The mini pool has no
	// cleaner, and its steal count has never been exported: those two have
	// no table row.)
	dram, mini, nvm tierStats

	// Background cleaner activity (DESIGN.md §5-bis).
	cleanerWakeups metrics.Counter
	cleanerBatches metrics.Counter
	cleanerStalls  metrics.Counter
	fgEvicts       metrics.Counter
	fgBatchCleaned metrics.Counter

	// Fault handling (DESIGN.md §5-ter).
	ioRetries             metrics.Counter
	ioGiveUps             metrics.Counter
	nvmDegraded           metrics.Counter
	nvmOrphanedPages      metrics.Counter
	cleanerAdmittedNVM    metrics.Counter
	hitNVMCleanerAdmitted metrics.Counter
}

// counterRow is one row of the counter table.
type counterRow struct {
	name string           // obs sample name; the /metrics family is spitfire_<name>_total
	live *metrics.Counter // the counter the hot paths bump
	snap *int64           // its field in a Stats snapshot
}

const nCounters = 33

// counters is the one table of buffer-manager counters, bound to the live
// set s and a snapshot o: Stats, ResetStats and the named obs samples are all
// loops over it, so a new counter is its bmStats field, its Stats field and a
// row here. The NVMDegraded latch is exposed as a gauge by the obs sources, so
// it has no sample name, and ResetStats leaves it set.
func (s *bmStats) counters(o *Stats) [nCounters]counterRow {
	return [...]counterRow{
		{"hit_dram", &s.hitDRAM, &o.HitDRAM},
		{"hit_mini", &s.hitMini, &o.HitMini},
		{"hit_nvm", &s.hitNVM, &o.HitNVM},
		{"miss_ssd", &s.missSSD, &o.MissSSD},
		{"mig_nvm_to_dram", &s.migNVMToDRAM, &o.NVMToDRAM},
		{"mig_ssd_to_dram", &s.ssdToDRAM, &o.SSDToDRAM},
		{"mig_ssd_to_nvm", &s.ssdToNVM, &o.SSDToNVM},
		{"mig_dram_to_nvm", &s.dramToNVM, &o.DRAMToNVM},
		{"mig_dram_to_ssd", &s.dramToSSD, &o.DRAMToSSD},
		{"mig_nvm_to_ssd", &s.nvmToSSD, &o.NVMToSSD},
		{"evict_dram", &s.dram.evicts, &o.EvictDRAM},
		{"evict_mini", &s.mini.evicts, &o.EvictMini},
		{"evict_nvm", &s.nvm.evicts, &o.EvictNVM},
		{"fg_unit_loads", &s.fgUnitLoads, &o.FGUnitLoads},
		{"mini_promotions", &s.miniPromotions, &o.MiniPromotions},
		{"flushed_dram_pages", &s.flushedDRAMPages, &o.FlushedDRAMPages},
		{"flushed_nvm_pages", &s.flushedNVMPages, &o.FlushedNVMPages},
		{"recovered_nvm_pages", &s.recoveredNVMPages, &o.RecoveredNVMPages},
		{"cleaner_wakeups", &s.cleanerWakeups, &o.CleanerWakeups},
		{"cleaner_batches", &s.cleanerBatches, &o.CleanerBatches},
		{"cleaner_cleaned_dram", &s.dram.cleaned, &o.CleanerCleanedDRAM},
		{"cleaner_cleaned_nvm", &s.nvm.cleaned, &o.CleanerCleanedNVM},
		{"cleaner_stalls", &s.cleanerStalls, &o.CleanerStalls},
		{"foreground_evicts", &s.fgEvicts, &o.ForegroundEvicts},
		{"foreground_batch_cleaned", &s.fgBatchCleaned, &o.ForegroundBatchCleaned},
		{"io_retries", &s.ioRetries, &o.IORetries},
		{"io_give_ups", &s.ioGiveUps, &o.IOGiveUps},
		{"", &s.nvmDegraded, &o.NVMDegraded},
		{"nvm_orphaned_pages", &s.nvmOrphanedPages, &o.NVMOrphanedPages},
		{"cleaner_admitted_nvm", &s.cleanerAdmittedNVM, &o.CleanerAdmittedNVM},
		{"hit_nvm_cleaner_admitted", &s.hitNVMCleanerAdmitted, &o.HitNVMCleanerAdmitted},
		{"dram_free_steals", &s.dram.freeSteals, &o.DRAMFreeSteals},
		{"nvm_free_steals", &s.nvm.freeSteals, &o.NVMFreeSteals},
	}
}

// Stats is a snapshot of the buffer manager's counters.
type Stats struct {
	HitDRAM, HitMini, HitNVM, MissSSD int64 // where fetches were served

	// Migrations along the Figure 3 data-flow paths.
	NVMToDRAM int64 // path ❻ (upward migration on access)
	SSDToDRAM int64 // path ❾ (NVM bypass on reads)
	SSDToNVM  int64 // path ❼ (default read path, probability Nr)
	DRAMToNVM int64 // path ❹ (NVM admission on DRAM eviction)
	DRAMToSSD int64 // path ❿ (NVM bypass on writes)
	NVMToSSD  int64 // path ❽ (NVM eviction write-back)

	EvictDRAM, EvictMini, EvictNVM int64
	FGUnitLoads, MiniPromotions    int64
	FlushedDRAMPages               int64
	FlushedNVMPages                int64
	RecoveredNVMPages              int64

	// Background cleaner activity. CleanerWakeups counts the allocator kicks
	// a cleaner goroutine woke for (none on an idle pool); CleanerCleaned*
	// count frames the cleaner pre-cleaned and pushed onto a free list;
	// ForegroundEvicts counts allocations that had to evict inline (the
	// fallback path — with the cleaner keeping up this stays near zero);
	// CleanerStalls counts replenish passes that made no progress because
	// every victim was pinned or under migration. ForegroundBatchCleaned
	// counts the extra frames an inline eviction stole into the free list
	// beyond its own — the foreground assist that amortizes one victim scan
	// across the allocators queued behind it when the cleaner is behind.
	CleanerWakeups         int64
	CleanerBatches         int64
	CleanerCleanedDRAM     int64
	CleanerCleanedNVM      int64
	CleanerStalls          int64
	ForegroundEvicts       int64
	ForegroundBatchCleaned int64

	// Fault handling (DESIGN.md §5-ter). IORetries counts individual retried
	// device operations, IOGiveUps operations abandoned after the retry
	// budget (or on a permanent/crash error). NVMDegraded is 1 once the NVM
	// tier has permanently failed and the manager collapsed to two-tier
	// DRAM–SSD mode; NVMOrphanedPages counts pages whose newest content was
	// lost with the tier.
	IORetries        int64
	IOGiveUps        int64
	NVMDegraded      int64
	NVMOrphanedPages int64

	// Cleaner admission bias: CleanerAdmittedNVM counts NVM installs made by
	// the background cleaner, which feeds the NVM admission queue instead of
	// flipping the Nw coin; HitNVMCleanerAdmitted is the subset of HitNVM
	// served from such frames. Comparing the two hit rates
	// (HitNVMCleanerAdmitted/CleanerAdmittedNVM vs HitNVM/SSDToNVM+
	// DRAMToNVM) shows whether queue-gated cleaner admission picks useful
	// pages.
	CleanerAdmittedNVM    int64
	HitNVMCleanerAdmitted int64

	// Sharded free-list activity: allocations that could not pop their home
	// shard's free list and stole a frame from another shard instead. A high
	// steal rate relative to allocations means the shard count outstrips the
	// worker count (or affinity churns) and frames slosh between shards.
	DRAMFreeSteals int64
	NVMFreeSteals  int64
}

// Stats snapshots the manager's counters.
func (bm *BufferManager) Stats() Stats {
	var out Stats
	for _, c := range bm.stats.counters(&out) {
		*c.snap = c.live.Load()
	}
	return out
}

// ResetStats zeroes every counter except the NVMDegraded latch (buffer
// contents are kept).
func (bm *BufferManager) ResetStats() {
	for _, c := range bm.stats.counters(new(Stats)) {
		if c.name != "" {
			c.live.Store(0)
		}
	}
}

// ObsCounters returns every counter as a named monotonic sample — the buffer
// manager's share of an obs.Source, which the harness and the server append
// their own families to. The hit_* / miss_ssd names are load-bearing: the
// snapshot endpoint derives hit rates from them.
func (bm *BufferManager) ObsCounters() []obs.Sample {
	out := make([]obs.Sample, 0, nCounters)
	for _, c := range bm.stats.counters(new(Stats)) {
		if c.name != "" {
			out = append(out, obs.Sample{Name: c.name, Value: c.live.Load()})
		}
	}
	return out
}

// PoolGauges is a point-in-time occupancy snapshot of the buffer pools,
// exposed to the observability layer as gauges: per-tier capacity, free-list
// depth, occupied frames, and dirty frames.
type PoolGauges struct {
	DRAMFrames, DRAMFree, DRAMUsed, DRAMDirty int
	MiniFrames, MiniFree, MiniUsed, MiniDirty int
	NVMFrames, NVMFree, NVMUsed, NVMDirty     int
}

// poolGauges scans a pool's frame metadata. The scan is racy by design —
// gauges are monitoring data, not invariants — but every load is atomic.
func poolGauges(p *basePool) (free, used, dirty int) {
	free = p.freeCount()
	for i := range p.meta {
		if p.meta[i].pid.Load() == InvalidPageID {
			continue
		}
		used++
		if p.meta[i].dirty.Load() {
			dirty++
		}
	}
	return free, used, dirty
}

// PoolGauges snapshots buffer-pool occupancy for live exposition.
func (bm *BufferManager) PoolGauges() PoolGauges {
	var g PoolGauges
	if bm.dram != nil {
		g.DRAMFrames = bm.dram.nFrames
		g.DRAMFree, g.DRAMUsed, g.DRAMDirty = poolGauges(&bm.dram.basePool)
		if bm.dram.mini != nil {
			g.MiniFrames = bm.dram.mini.nFrames
			g.MiniFree, g.MiniUsed, g.MiniDirty = poolGauges(&bm.dram.mini.basePool)
		}
	}
	if bm.nvm != nil {
		g.NVMFrames = bm.nvm.nFrames
		g.NVMFree, g.NVMUsed, g.NVMDirty = poolGauges(&bm.nvm.basePool)
	}
	return g
}

// Pressure is the buffer manager's load-shedding signal set, sampled by
// admission-control front-ends (internal/server) so they can refuse work
// *before* the manager saturates: free-list depth per tier and the
// permanent-degradation flag. Unlike PoolGauges it never scans frame
// metadata — every read is one atomic load — so it is cheap enough to sample
// on a tight monitoring loop.
type Pressure struct {
	// DRAMFree/NVMFree are the current free-list depths in frames;
	// DRAMFrames/NVMFrames the tier capacities (0 when the tier is absent
	// or, for NVM, permanently failed).
	DRAMFree, DRAMFrames int
	NVMFree, NVMFrames   int

	// DRAMFreeFrac and NVMFreeFrac are free/capacity, reported as 1 for an
	// absent tier so "min over tiers" works without special cases.
	DRAMFreeFrac, NVMFreeFrac float64

	// Degraded latches true once the NVM tier has failed permanently and
	// the hierarchy collapsed to two-tier DRAM–SSD mode.
	Degraded bool
}

// MinFreeFrac returns the scarcest tier's free-list fraction.
func (p Pressure) MinFreeFrac() float64 {
	if p.DRAMFreeFrac < p.NVMFreeFrac {
		return p.DRAMFreeFrac
	}
	return p.NVMFreeFrac
}

// Pressure samples the load-shedding signals. Safe to call concurrently
// with a running workload; the snapshot is racy by design (monitoring data,
// not an invariant).
func (bm *BufferManager) Pressure() Pressure {
	p := Pressure{DRAMFreeFrac: 1, NVMFreeFrac: 1}
	if bm.dram != nil {
		p.DRAMFrames = bm.dram.nFrames
		p.DRAMFree = bm.dram.freeCount()
		if p.DRAMFrames > 0 {
			p.DRAMFreeFrac = float64(p.DRAMFree) / float64(p.DRAMFrames)
		}
	}
	p.Degraded = bm.nvmDown()
	if bm.nvm != nil && !p.Degraded {
		p.NVMFrames = bm.nvm.nFrames
		p.NVMFree = bm.nvm.freeCount()
		if p.NVMFrames > 0 {
			p.NVMFreeFrac = float64(p.NVMFree) / float64(p.NVMFrames)
		}
	}
	return p
}

// Inclusivity computes the paper's inclusivity ratio (§3.3):
//
//	#pages in both DRAM and NVM buffers / #pages in either buffer
//
// Lower non-zero values mean less duplication and therefore more effective
// combined buffer capacity (Table 2).
func (bm *BufferManager) Inclusivity() float64 {
	both, either := 0, 0
	bm.table.Range(func(_ PageID, d *descriptor) bool {
		l := d.load()
		inDRAM := l.dramFrame != noFrame || l.dramMini != noFrame
		inNVM := l.nvmFrame != noFrame
		if inDRAM || inNVM {
			either++
		}
		if inDRAM && inNVM {
			both++
		}
		return true
	})
	if either == 0 {
		return 0
	}
	return float64(both) / float64(either)
}

// ResidentPages reports how many distinct pages currently sit in each
// buffer (diagnostics for the capacity experiments).
func (bm *BufferManager) ResidentPages() (dram, nvm int) {
	bm.table.Range(func(_ PageID, d *descriptor) bool {
		l := d.load()
		if l.dramFrame != noFrame || l.dramMini != noFrame {
			dram++
		}
		if l.nvmFrame != noFrame {
			nvm++
		}
		return true
	})
	return dram, nvm
}
