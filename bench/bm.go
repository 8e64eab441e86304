package main

import (
	"fmt"
	"os"

	spitfire "github.com/spitfire-db/spitfire"
	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/ssd"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// bm-hot and bm-churn drive the buffer manager alone, through the facade's
// defaults (cleaner on, RecommendedShards, lazy policy): FetchPage, a 256 B
// ReadAt or WriteAt, Release.
type bmParams struct {
	dramMiB, nvmMiB int64
	pages           int
	theta           float64
	writePct        uint64
	segOps          int // per worker per segment: about 150 ms on the sizing host
	warmOps         int // per worker: about a second
}

var bmWorkloads = map[string]bmParams{
	// 512 pages = 8 MiB in a 16 MiB DRAM buffer: after warm-up nothing misses
	// and the hit path is all the work.
	"bm-hot": {dramMiB: 16, nvmMiB: 64, pages: 512, theta: 0.9, writePct: 10,
		segOps: 200_000, warmOps: 1_500_000},
	// 8192 pages = 128 MiB over 20 MiB of buffers: misses, evictions, the
	// cleaner, NVM admission and write-back are most of the work.
	"bm-churn": {dramMiB: 4, nvmMiB: 16, pages: 8192, theta: 0.7, writePct: 30,
		segOps: 25_000, warmOps: 300_000},
}

const (
	unitSize     = 256
	unitsPerPage = core.PageSize / unitSize
	latEvery     = 32 // bm-*: time every 32nd operation
)

type bmWorker struct {
	tally
	ctx *core.Ctx
	r   *rng
	// seq is this worker's oracle: the sequence number of its last write to
	// each unit it owns (0: still the load's stamp). Worker w owns the units
	// with unit % workers == w of every page, so no unit has two writers, the
	// oracle is exact without synchronisation, and pages are still shared.
	seq   []uint32
	wbuf  [unitSize]byte
	rbuf  [unitSize]byte
	class [3][]uint32 // traced fetch durations by outcome: DRAM hit, NVM hit, miss
}

type bmDriver struct {
	cfg  *config
	p    bmParams
	tap  *tap
	nw   int
	per  int // units a worker owns per page
	zipf *zipfTable
	bm   *core.BufferManager
	dram *device.Device // nil unless the stack was built with a tap
	w    []*bmWorker
}

func newBMDriver(cfg *config, tp *tap) *bmDriver {
	p := bmWorkloads[cfg.workload]
	p.segOps, p.warmOps = cfg.scaled(p.segOps), cfg.scaled(p.warmOps)
	return &bmDriver{cfg: cfg, p: p, tap: tp, nw: cfg.workers, per: unitsPerPage / cfg.workers}
}

func (d *bmDriver) workers() int  { return d.nw }
func (d *bmDriver) segOps() int   { return d.p.segOps }
func (d *bmDriver) pid() int      { return os.Getpid() }
func (d *bmDriver) close()        { d.bm.Close() }
func (d *bmDriver) layer() string { return "core" }

func (d *bmDriver) clock(w int) *vclock.Clock { return d.w[w].ctx.Clock }
func (d *bmDriver) size() (items, frames int) { return d.p.pages, d.bm.DRAMFrames() }

func (d *bmDriver) quiesce() error { return nil }

func (d *bmDriver) tallies() []*tally {
	out := make([]*tally, len(d.w))
	for i, w := range d.w {
		out[i] = &w.tally
	}
	return out
}

func (d *bmDriver) setup() error {
	c := spitfire.Config{
		DRAMBytes: d.p.dramMiB << 20,
		NVMBytes:  d.p.nvmMiB << 20,
		Policy:    spitfire.SpitfireLazy,
	}
	if d.tap != nil {
		// A traced run decorates the injectable interfaces; the objects
		// behind them are the ones the facade would have built itself.
		d.dram = device.New(device.DRAMParams)
		c.SSD = tracedSSD{Store: ssd.NewMem(nil), tap: d.tap}
		c.DRAMCharger = tracedCharger{MemCharger: core.DeviceCharger{Dev: d.dram}, tap: d.tap}
	}
	bm, err := spitfire.New(c)
	if err != nil {
		return err
	}
	d.bm = bm
	d.zipf = newZipfTable(d.p.pages, d.p.theta, d.cfg.seed)

	loader := spitfire.NewCtx(d.cfg.seed)
	page := make([]byte, core.PageSize)
	for pid := 0; pid < d.p.pages; pid++ {
		for u := 0; u < unitsPerPage; u++ {
			stamp{id: unitID(uint64(pid), u), worker: loaderID}.put(page[u*unitSize : (u+1)*unitSize])
		}
		if err := bm.SeedPage(loader, uint64(pid), page); err != nil {
			return fmt.Errorf("seed page %d: %w", pid, err)
		}
	}

	// One Ctx per worker lives from warm-up to the end of the run: device
	// bandwidth horizons are global and only move forward, so a fresh clock
	// would start behind them and its first transfers would be charged the
	// whole gap.
	d.w = make([]*bmWorker, d.nw)
	for i := range d.w {
		d.w[i] = &bmWorker{
			ctx: spitfire.NewCtx(d.cfg.seed*1000 + uint64(i) + 1),
			r:   newRNG(d.cfg.seed*1000 + uint64(i) + 1),
			seq: make([]uint32, d.p.pages*d.per),
		}
		d.w[i].lat = make([]uint32, 0, sampleCap(d.cfg, 3_000_000/latEvery))
	}
	runSegment(d, d.nw, d.p.warmOps, nil)
	for _, w := range d.w {
		w.lat = w.lat[:0]
	}
	if _, f, _ := totals(d.tallies()); f > 0 {
		return fmt.Errorf("%d failures during warm-up", f)
	}
	return nil
}

// sampleCap sizes a worker's latency buffer for perSec samples a second
// over the whole run, with room for a program a few times faster than
// today's; capacity that is never written is never resident.
func sampleCap(cfg *config, perSec int) int {
	return int(float64(perSec)*(cfg.seconds+2)*4) + 1024
}

func unitID(page uint64, unit int) uint64 { return page<<8 | uint64(unit) }

type bmOp struct {
	page  uint64
	unit  int
	idx   int // oracle slot
	write bool
}

// next draws the worker's next operation and, for a write, advances the
// oracle and stamps the write buffer — outside any timed window.
func (d *bmDriver) next(wi int, w *bmWorker) bmOp {
	u := w.r.next()
	k := int((u >> 32) * uint64(d.per) >> 32)
	op := bmOp{page: d.zipf.draw(w.r), write: (u&0xFFFFFFFF)*100>>32 < d.p.writePct}
	op.unit = wi + d.nw*k
	op.idx = int(op.page)*d.per + k
	if op.write {
		w.seq[op.idx]++
		stamp{id: unitID(op.page, op.unit), worker: uint16(wi), seq: w.seq[op.idx]}.put(w.wbuf[:])
	}
	w.attempted++
	return op
}

// expect is what the oracle says unit op.unit of op.page must hold.
func (d *bmDriver) expect(wi int, w *bmWorker, op bmOp) stamp {
	want := stamp{id: unitID(op.page, op.unit), worker: loaderID}
	if s := w.seq[op.idx]; s > 0 {
		want.worker, want.seq = uint16(wi), s
	}
	return want
}

func (d *bmDriver) run(wi, n int, rec *recorder) {
	if rec != nil {
		d.runTraced(wi, n, rec)
		return
	}
	w := d.w[wi]
	for i := 0; i < n; i++ {
		op := d.next(wi, w)
		intent := core.ReadIntent
		if op.write {
			intent = core.WriteIntent
		}
		timed := i%latEvery == 0
		var t0 int64
		if timed {
			t0 = now()
		}
		h, err := d.bm.FetchPage(w.ctx, op.page, intent)
		if err != nil {
			w.fail()
			continue
		}
		err = w.access(h, op)
		h.Release()
		if timed {
			w.lat = append(w.lat, clampNs(now()-t0))
		}
		d.check(wi, w, op, err)
	}
}

// access is the operation's 256 B write or read through the pinned handle.
func (w *bmWorker) access(h *core.Handle, op bmOp) error {
	if op.write {
		return h.WriteAt(w.ctx, op.unit*unitSize, w.wbuf[:])
	}
	return h.ReadAt(w.ctx, op.unit*unitSize, w.rbuf[:])
}

// check counts a failed access, or a read that is not what the oracle says.
func (d *bmDriver) check(wi int, w *bmWorker, op bmOp, err error) {
	if err != nil {
		w.fail()
	} else if !op.write {
		if got, ok := readStamp(w.rbuf[:]); !ok || got != d.expect(wi, w, op) {
			w.fail()
		}
	}
}

// runTraced is run with a span at every boundary the driver crosses.
// Adjacent spans share a timestamp, so the three calls tile the operation
// exactly; the program's calls into the decorated SSD and DRAM charger nest
// inside whichever is open. Each fetch is classified by the Stats() delta
// it caused — exact with one worker, since only fetches move those counters.
func (d *bmDriver) runTraced(wi, n int, rec *recorder) {
	w := d.w[wi]
	for i := 0; i < n; i++ {
		op := d.next(wi, w)
		intent, access := core.ReadIntent, spRead
		if op.write {
			intent, access = core.WriteIntent, spWrite
		}
		rec.op++
		before := d.bm.Stats()
		t0 := now()
		rec.begin(spOp, t0)
		rec.begin(spFetch, t0)
		h, err := d.bm.FetchPage(w.ctx, op.page, intent)
		t1 := now()
		rec.end(t1)
		if err != nil {
			rec.end(t1)
			w.fail()
			continue
		}
		rec.begin(access, t1)
		err = w.access(h, op)
		t2 := now()
		rec.end(t2)
		rec.begin(spRelease, t2)
		h.Release()
		t3 := now()
		rec.end(t3)
		rec.end(t3)
		w.lat = append(w.lat, clampNs(t3-t0))
		after := d.bm.Stats()
		cls := 0
		switch {
		case after.MissSSD > before.MissSSD:
			cls = 2
		case after.HitNVM > before.HitNVM:
			cls = 1
		}
		if len(w.class[cls]) < durCap {
			w.class[cls] = append(w.class[cls], clampNs(t1-t0))
		}
		d.check(wi, w, op, err)
	}
}

func clampNs(d int64) uint32 { return uint32(min(max(d, 0), 1<<32-1)) }

// audit reads every unit of every page back through the buffer manager and
// checks it against its owner's oracle.
func (d *bmDriver) audit() error {
	ctx := spitfire.NewCtx(d.cfg.seed ^ 0xA0D17)
	// Start at the workers' frontier for the reason given in setup.
	for _, w := range d.w {
		ctx.Clock.AdvanceTo(w.ctx.Clock.Now())
	}
	page := make([]byte, core.PageSize)
	t := &d.w[0].tally
	for pid := 0; pid < d.p.pages; pid++ {
		h, err := d.bm.FetchPage(ctx, uint64(pid), core.ReadIntent)
		if err != nil {
			return fmt.Errorf("page %d: %w", pid, err)
		}
		err = h.ReadAt(ctx, 0, page)
		h.Release()
		if err != nil {
			return fmt.Errorf("page %d: %w", pid, err)
		}
		for u := 0; u < unitsPerPage; u++ {
			wi := u % d.nw
			op := bmOp{page: uint64(pid), unit: u, idx: pid*d.per + u/d.nw}
			t.attempted++
			if got, ok := readStamp(page[u*unitSize : (u+1)*unitSize]); !ok || got != d.expect(wi, d.w[wi], op) {
				t.fail()
			}
		}
	}
	return nil
}

func (d *bmDriver) snap() (counters, error) {
	c := coreCounters(d.bm.Stats())
	addDevice(c, "ssd", d.bm.Disk().Device().Stats())
	addDevice(c, "nvm", d.bm.PMem().Device().Stats())
	if d.dram != nil {
		addDevice(c, "dram", d.dram.Stats())
	}
	for _, w := range d.w {
		c["sim_ns"] += float64(w.ctx.Clock.Now())
	}
	c["sim_ns_w0"] = float64(d.w[0].ctx.Clock.Now())
	return c, nil
}
