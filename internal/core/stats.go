package core

import (
	"github.com/spitfire-db/spitfire/internal/lockcheck"
	"github.com/spitfire-db/spitfire/internal/metrics"
	"github.com/spitfire-db/spitfire/internal/obs"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// counter names one of the buffer manager's counters: its index in every
// statBlock and its row in the counters table.
type counter uint8

const (
	cHitDRAM counter = iota
	cHitMini
	cHitNVM
	cMissSSD
	cMigNVMToDRAM
	cSSDToDRAM
	cSSDToNVM
	cDRAMToNVM
	cDRAMToSSD
	cNVMToSSD
	cEvictDRAM
	cEvictMini
	cEvictNVM
	cFGUnitLoads
	cMiniPromotions
	cFlushedDRAMPages
	cRecoveredNVMPages

	// Background cleaner activity (DESIGN.md §6a).
	cCleanerWakeups
	cCleanerBatches
	cCleanedDRAM
	cCleanedNVM
	cCleanerStalls
	cFgEvicts

	// Fault handling (DESIGN.md §6b).
	cIORetries
	cIOGiveUps
	cNVMDegraded
	cNVMOrphanedPages

	nCounters // rows in the counters table
)

// Counted, never exported: the mini pool has no cleaner. The id exists so
// every pool has its two.
const (
	cCleanedMini = nCounters + iota
	nStats
)

// tierStats are the ids of the two counters a pool bumps itself.
type tierStats struct{ evicts, cleaned counter }

var (
	dramStats = tierStats{cEvictDRAM, cCleanedDRAM}
	miniStats = tierStats{cEvictMini, cCleanedMini}
	nvmStats  = tierStats{cEvictNVM, cCleanedNVM}
)

// statStripes is how many per-worker counter blocks a manager keeps. A constant
// small enough that summing them is cheap: a traced benchmark pass calls Stats
// twice per operation.
const statStripes = 8

// statBlock is one worker stripe's counters. The trailing padding makes a
// block a whole number of cache lines and keeps one block's counters at least
// 56 bytes from the next's, so two blocks never share a line at any 8-byte
// alignment. It is sized from the 8-byte counters' count, so adding or
// deleting a counter keeps the layout.
type statBlock struct {
	c [nStats]metrics.Counter
	_ [56 + (64-(int(nStats)*8+56)%64)%64]byte
}

// bmStats is the manager's counters, one block per worker stripe: worker w
// counts in block w % statStripes, so a hit bumps a cache line no other
// worker's hits write. Sites with no worker at hand use block 0. The leading
// padding keeps block 0 off the line of whatever field of the BufferManager
// precedes the counters (each block carries its own trailing padding).
type bmStats struct {
	_      [56]byte
	blocks [statStripes]statBlock
}

// at returns worker w's counter block.
func (s *bmStats) at(w int) *statBlock { return &s.blocks[w%statStripes] }

// count bumps counter id in the block of the worker that owns clock c.
func (bm *BufferManager) count(c *vclock.Clock, id counter) { bm.stats.at(c.Worker()).c[id].Inc() }

// counterRow is one row of the counter table.
type counterRow struct {
	name string // obs sample name; the /metrics family is spitfire_<name>_total
	snap *int64 // the counter's field in a Stats snapshot
}

// counters is the one table of buffer-manager counters — row i describes
// counter i — bound to a snapshot o: Stats, ResetStats and the named obs
// samples are all loops over it (and over the blocks), so a new counter is its
// id above, its Stats field and a row here. The NVMDegraded latch is exposed as
// a gauge by the obs sources, so it has no sample name, and ResetStats leaves
// it set.
func counters(o *Stats) [nCounters]counterRow {
	return [...]counterRow{
		cHitDRAM:           {"hit_dram", &o.HitDRAM},
		cHitMini:           {"hit_mini", &o.HitMini},
		cHitNVM:            {"hit_nvm", &o.HitNVM},
		cMissSSD:           {"miss_ssd", &o.MissSSD},
		cMigNVMToDRAM:      {"mig_nvm_to_dram", &o.NVMToDRAM},
		cSSDToDRAM:         {"mig_ssd_to_dram", &o.SSDToDRAM},
		cSSDToNVM:          {"mig_ssd_to_nvm", &o.SSDToNVM},
		cDRAMToNVM:         {"mig_dram_to_nvm", &o.DRAMToNVM},
		cDRAMToSSD:         {"mig_dram_to_ssd", &o.DRAMToSSD},
		cNVMToSSD:          {"mig_nvm_to_ssd", &o.NVMToSSD},
		cEvictDRAM:         {"evict_dram", &o.EvictDRAM},
		cEvictMini:         {"evict_mini", &o.EvictMini},
		cEvictNVM:          {"evict_nvm", &o.EvictNVM},
		cFGUnitLoads:       {"fg_unit_loads", &o.FGUnitLoads},
		cMiniPromotions:    {"mini_promotions", &o.MiniPromotions},
		cFlushedDRAMPages:  {"flushed_dram_pages", &o.FlushedDRAMPages},
		cRecoveredNVMPages: {"recovered_nvm_pages", &o.RecoveredNVMPages},
		cCleanerWakeups:    {"cleaner_wakeups", &o.CleanerWakeups},
		cCleanerBatches:    {"cleaner_batches", &o.CleanerBatches},
		cCleanedDRAM:       {"cleaner_cleaned_dram", &o.CleanerCleanedDRAM},
		cCleanedNVM:        {"cleaner_cleaned_nvm", &o.CleanerCleanedNVM},
		cCleanerStalls:     {"cleaner_stalls", &o.CleanerStalls},
		cFgEvicts:          {"foreground_evicts", &o.ForegroundEvicts},
		cIORetries:         {"io_retries", &o.IORetries},
		cIOGiveUps:         {"io_give_ups", &o.IOGiveUps},
		cNVMDegraded:       {"", &o.NVMDegraded},
		cNVMOrphanedPages:  {"nvm_orphaned_pages", &o.NVMOrphanedPages},
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
	RecoveredNVMPages              int64

	// Background cleaner activity. CleanerWakeups counts the allocator kicks
	// a cleaner goroutine woke for (none on an idle pool); CleanerCleaned*
	// count frames the cleaner pre-cleaned and pushed onto a free list;
	// ForegroundEvicts counts allocations that had to evict inline (the
	// fallback path — with the cleaner keeping up this stays near zero);
	// CleanerStalls counts replenish passes that made no progress because
	// every victim was pinned or under migration. A cleaner's evictions
	// admit pages to NVM by the foreground's rule, so they count in the
	// migration rows above like any other (DRAMToNVM, DRAMToSSD).
	CleanerWakeups     int64
	CleanerBatches     int64
	CleanerCleanedDRAM int64
	CleanerCleanedNVM  int64
	CleanerStalls      int64
	ForegroundEvicts   int64

	// Fault handling (DESIGN.md §6b). IORetries counts individual retried
	// device operations, IOGiveUps operations abandoned after the retry
	// budget (or on a permanent/crash error). NVMDegraded is 1 once the NVM
	// tier has permanently failed and the manager collapsed to two-tier
	// DRAM–SSD mode; NVMOrphanedPages counts pages whose newest content was
	// lost with the tier.
	IORetries        int64
	IOGiveUps        int64
	NVMDegraded      int64
	NVMOrphanedPages int64

	// Always zero: each pool has one free list, so there is nothing to steal
	// from. Kept only until bench/ stops reading them.
	DRAMFreeSteals int64
	NVMFreeSteals  int64
}

// Stats snapshots the manager's counters, summed over the worker blocks.
func (bm *BufferManager) Stats() Stats {
	var out Stats
	rows := counters(&out)
	for b := range bm.stats.blocks {
		blk := &bm.stats.blocks[b]
		for i := range rows {
			*rows[i].snap += blk.c[i].Load()
		}
	}
	return out
}

// ResetStats zeroes every counter except the NVMDegraded latch (buffer
// contents are kept).
func (bm *BufferManager) ResetStats() {
	for b := range bm.stats.blocks {
		blk := &bm.stats.blocks[b]
		for i := range blk.c {
			if i != int(cNVMDegraded) {
				blk.c[i].Store(0)
			}
		}
	}
}

// ObsCounters returns every counter as a named monotonic sample — the buffer
// manager's share of an obs.Source, which the harness and the server append
// their own families to. The hit_* / miss_ssd names are load-bearing: the
// snapshot endpoint derives hit rates from them.
func (bm *BufferManager) ObsCounters() []obs.Sample {
	sum := bm.Stats()
	out := make([]obs.Sample, 0, nCounters)
	for _, c := range counters(&sum) {
		if c.name != "" {
			out = append(out, obs.Sample{Name: c.name, Value: *c.snap})
		}
	}
	return out
}

// ObsGauges returns the pools' occupancy as named gauges, the buffer
// manager's share of an obs.Source next to ObsCounters. Capacity and
// free-list depth read as Pressure reports them, so a failed NVM tier counts
// no frames. The mini_* rows exist only when DRAM has mini frames.
func (bm *BufferManager) ObsGauges() []obs.Sample {
	p := bm.Pressure()
	var dram, mini, nvm *basePool
	if bm.dram != nil {
		dram = &bm.dram.basePool
		if bm.dram.mini != nil {
			mini = &bm.dram.mini.basePool
		}
	}
	if bm.nvm != nil && !p.Degraded {
		nvm = &bm.nvm.basePool
	}
	var degraded int64
	if p.Degraded {
		degraded = 1
	}
	out := []obs.Sample{
		{Name: "dram_frames", Value: int64(p.DRAMFrames)},
		{Name: "dram_free_frames", Value: int64(p.DRAMFree)},
		{Name: "nvm_frames", Value: int64(p.NVMFrames)},
		{Name: "nvm_free_frames", Value: int64(p.NVMFree)},
		{Name: "min_free_millifrac", Value: int64(p.MinFreeFrac() * 1000)},
		{Name: "nvm_degraded", Value: degraded},
	}
	out = occupancy(out, "dram", dram)
	out = occupancy(out, "nvm", nvm)
	if mini != nil {
		out = append(out,
			obs.Sample{Name: "mini_frames", Value: int64(mini.nFrames)},
			obs.Sample{Name: "mini_free_frames", Value: int64(mini.freeCount())})
		out = occupancy(out, "mini", mini)
	}
	return out
}

// occupancy appends a pool's <tier>_used_frames and <tier>_dirty_frames (0
// for a nil pool). The scan of the frame metadata is racy by design — gauges
// are monitoring data, not invariants — but every load is atomic.
func occupancy(out []obs.Sample, tier string, p *basePool) []obs.Sample {
	var used, dirty int64
	if p != nil {
		for i := range p.meta {
			if p.meta[i].pid.Load() == InvalidPageID {
				continue
			}
			used++
			if p.meta[i].dirty.Load() {
				dirty++
			}
		}
	}
	return append(out,
		obs.Sample{Name: tier + "_used_frames", Value: used},
		obs.Sample{Name: tier + "_dirty_frames", Value: dirty})
}

// Pressure is the buffer manager's load-shedding signal set, sampled by
// admission-control front-ends (internal/server) so they can refuse work
// *before* the manager saturates: free-list depth per tier and the
// permanent-degradation flag. Unlike ObsGauges it never scans frame
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
	var h lockcheck.Holder // no worker's: it takes one mu at a time
	bm.table.Range(func(_ PageID, d *descriptor) bool {
		l := d.load(&h)
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
	var h lockcheck.Holder // no worker's: it takes one mu at a time
	bm.table.Range(func(_ PageID, d *descriptor) bool {
		l := d.load(&h)
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
