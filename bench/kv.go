package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	spitfire "github.com/spitfire-db/spitfire"
	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/ssd"
	"github.com/spitfire-db/spitfire/internal/vclock"
	"github.com/spitfire-db/spitfire/internal/wal"
)

// kv-txn drives engine.KV in process — one transaction per operation over a
// keyspace 2.6× the buffers — so engine, btree, mvto and wal do most of the
// work and core a minority. serve-http uses the same keys, values and checks
// through the real binary.
const (
	kvKeys     = 100_000
	kvValueLen = 200
	kvMaxValue = 256
	kvScanLen  = 16
	kvDRAMMiB  = 2
	kvNVMMiB   = 8
	kvTheta    = 0.9
	kvLoadTxn  = 512 // keys per load transaction / per /kv/txn batch

	kvSegOps   = 8_000 // per worker per segment: about 150 ms on the sizing host
	kvCkptSegs = 8     // checkpoint after every 8th segment: about once a second
	kvWarmOps  = 50_000
	kvLatEvery = 8
	kvRetries  = 64 // ErrConflict retries before an operation counts as failed
)

// kvOracle is one worker's record of its own writes: the sequence number of
// its last committed put per key (0: none yet).
type kvOracle struct {
	worker uint16
	seq    []uint32
}

// checkValue applies the output checks every get and scan result must pass:
// the value carries its own key, and a value this worker stamped is this
// worker's latest write to that key.
func (o *kvOracle) checkValue(key uint64, val []byte) bool {
	s, ok := readStamp(val)
	if !ok || len(val) != kvValueLen || s.id != key {
		return false
	}
	if s.worker == o.worker && s.seq != o.seq[key] {
		return false
	}
	return true
}

// auditValue is the end-of-run check: key must hold the load's value or
// some worker's last write.
func auditValue(oracles []*kvOracle, key uint64, val []byte) bool {
	s, ok := readStamp(val)
	if !ok || len(val) != kvValueLen || s.id != key {
		return false
	}
	if s.worker == loaderID {
		if s.seq != 0 {
			return false
		}
		for _, o := range oracles {
			if o.seq[key] != 0 {
				return false // somebody's committed write was lost
			}
		}
		return true
	}
	return int(s.worker) < len(oracles) && s.seq != 0 && oracles[s.worker].seq[key] == s.seq
}

type kvWorker struct {
	tally
	kvOracle
	ctx *core.Ctx
	r   *rng
	val [kvValueLen]byte
}

type kvDriver struct {
	cfg  *config
	tap  *tap
	nw   int
	seg  int
	zipf *zipfTable
	bm   *core.BufferManager
	db   *engine.DB
	kv   *engine.KV
	log  *tracedLog // nil unless built with a tap
	devs struct{ dram, nvm, walNVM, ssd, logSSD *device.Device }
	w    []*kvWorker

	quiesced    int // quiesce calls so far
	ckptNs      []int64
	ckptRetries int64
}

func newKVDriver(cfg *config, tp *tap) *kvDriver {
	return &kvDriver{cfg: cfg, tap: tp, nw: cfg.workers, seg: cfg.scaled(kvSegOps)}
}

func (d *kvDriver) workers() int  { return d.nw }
func (d *kvDriver) segOps() int   { return d.seg }
func (d *kvDriver) pid() int      { return os.Getpid() }
func (d *kvDriver) close()        { d.bm.Close() }
func (d *kvDriver) layer() string { return "engine" }

func (d *kvDriver) clock(w int) *vclock.Clock { return d.w[w].ctx.Clock }
func (d *kvDriver) size() (items, frames int) { return len(d.kv.Table().Pages()), d.bm.DRAMFrames() }

func (d *kvDriver) tallies() []*tally {
	out := make([]*tally, len(d.w))
	for i, w := range d.w {
		out[i] = &w.tally
	}
	return out
}

func (d *kvDriver) setup() error {
	// The devices are built here, not defaulted, so their Stats are readable.
	d.devs.dram = device.New(device.DRAMParams)
	d.devs.nvm = device.New(device.NVMParams)
	d.devs.walNVM = device.New(device.NVMParams)
	d.devs.ssd = device.New(device.SSDParams)
	d.devs.logSSD = device.New(device.SSDParams)

	var store ssd.Store = ssd.NewMem(d.devs.ssd)
	var charger core.MemCharger = core.DeviceCharger{Dev: d.devs.dram}
	var logStore wal.LogStore = wal.NewMemLog(d.devs.logSSD)
	if d.tap != nil {
		store = tracedSSD{Store: store, tap: d.tap}
		charger = tracedCharger{MemCharger: charger, tap: d.tap}
		d.log = &tracedLog{LogStore: logStore, tap: d.tap}
		logStore = d.log
	}
	nvmBytes := int64(kvNVMMiB) << 20
	bm, err := spitfire.New(spitfire.Config{
		DRAMBytes:   kvDRAMMiB << 20,
		NVMBytes:    nvmBytes,
		Policy:      spitfire.SpitfireLazy,
		SSD:         store,
		PMem:        pmem.New(pmem.Options{Size: nvmBytes, Device: d.devs.nvm}),
		DRAMCharger: charger,
	})
	if err != nil {
		return err
	}
	d.bm = bm
	w, err := spitfire.NewWAL(spitfire.WALOptions{
		Buffer: pmem.New(pmem.Options{Size: 4 << 20, Device: d.devs.walNVM}),
		Store:  logStore,
		Shards: spitfire.RecommendedWALShards(),
	})
	if err != nil {
		return err
	}
	if d.db, err = spitfire.OpenDB(spitfire.DBOptions{BM: bm, WAL: w}); err != nil {
		return err
	}
	if d.kv, err = engine.OpenKV(d.db, 1, "kv", kvMaxValue); err != nil {
		return err
	}
	d.zipf = newZipfTable(kvKeys, kvTheta, d.cfg.seed)

	d.w = make([]*kvWorker, d.nw)
	for i := range d.w {
		d.w[i] = &kvWorker{
			kvOracle: kvOracle{worker: uint16(i), seq: make([]uint32, kvKeys)},
			ctx:      spitfire.NewCtx(d.cfg.seed*1000 + uint64(i) + 1),
			r:        newRNG(d.cfg.seed*1000 + uint64(i) + 1),
		}
		d.w[i].lat = make([]uint32, 0, sampleCap(d.cfg, 200_000/kvLatEvery))
	}

	// Load on worker 0's Ctx (one Ctx per worker, kept for the whole run:
	// see bmDriver.setup), then checkpoint so the measured window starts
	// with an empty log.
	ctx := d.w[0].ctx
	var val [kvValueLen]byte
	for base := 0; base < kvKeys; base += kvLoadTxn {
		txn := d.db.Begin()
		for k := base; k < min(base+kvLoadTxn, kvKeys); k++ {
			stamp{id: uint64(k), worker: loaderID}.put(val[:])
			if err := d.kv.Put(ctx, txn, uint64(k), val[:]); err != nil {
				return fmt.Errorf("load key %d: %w", k, err)
			}
		}
		if err := txn.Commit(ctx); err != nil {
			return fmt.Errorf("load commit: %w", err)
		}
	}
	if err := d.checkpoint(); err != nil {
		return err
	}
	runSegment(d, d.nw, d.cfg.scaled(kvWarmOps), nil)
	if err := d.checkpoint(); err != nil {
		return err
	}
	d.ckptNs, d.ckptRetries = nil, 0
	for _, w := range d.w {
		w.lat = w.lat[:0]
	}
	if _, f, _ := totals(d.tallies()); f > 0 {
		return fmt.Errorf("%d failures during load and warm-up", f)
	}
	return nil
}

// quiesce checkpoints after every kvCkptSegs-th segment.
func (d *kvDriver) quiesce() error {
	d.quiesced++
	if d.quiesced%kvCkptSegs != 0 {
		return nil
	}
	return d.checkpoint()
}

// checkpoint runs with every worker parked and truncates the log: left
// alone, MemLog grows by ~30 MB a second and the run measures the garbage
// collector. Its time is kept out of the segments and reported as
// engine.checkpoint_ms_mean, so work moved into checkpoints still shows.
func (d *kvDriver) checkpoint() error {
	ctx := d.w[0].ctx
	var rec *recorder
	if d.tap != nil {
		rec = d.tap.rec(ctx.Clock)
	}
	t0 := now()
	if rec != nil {
		rec.begin(spCheckpoint, t0)
	}
	var err error
	for try := 0; ; try++ {
		var skipped int
		skipped, err = d.db.Checkpoint(ctx)
		if err != nil || skipped == 0 {
			break
		}
		// The workers are parked but the buffer manager's cleaner is not:
		// a page it holds latched is skipped. Give it a moment and retry.
		d.ckptRetries++
		if try == 200 {
			err = fmt.Errorf("checkpoint still skips %d pages after %d tries", skipped, try)
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	t1 := now()
	if rec != nil {
		rec.end(t1)
	}
	d.ckptNs = append(d.ckptNs, t1-t0)
	return err
}

const (
	kvGet = iota
	kvPut
	kvScan
)

func (d *kvDriver) run(wi, n int, rec *recorder) {
	w := d.w[wi]
	for i := 0; i < n; i++ {
		u := w.r.next()
		key := d.zipf.draw(w.r)
		kind := kvGet
		switch pct := (u & 0xFFFFFFFF) * 100 >> 32; {
		case pct >= 95:
			kind = kvScan
		case pct >= 50:
			kind = kvPut
			stamp{id: key, worker: w.worker, seq: w.seq[key] + 1}.put(w.val[:])
		}
		w.attempted++
		timed := rec != nil || i%kvLatEvery == 0
		var t0 int64
		if timed {
			t0 = now()
		}
		if rec != nil {
			rec.op++
			rec.begin(spOp, t0)
		}
		ok := d.txn(w, kind, key, rec, t0)
		if timed {
			t1 := now()
			if rec != nil {
				rec.end(t1)
			}
			w.lat = append(w.lat, clampNs(t1-t0))
		}
		if !ok {
			w.fail()
		} else if kind == kvPut {
			w.seq[key]++
		}
	}
}

// txn runs one operation as one transaction, retrying MVTO conflicts, and
// reports whether it committed with every output check passed. With a
// recorder, t is the time the enclosing bench.op span opened and each engine
// call gets a span; adjacent spans share a timestamp so they tile the
// operation.
func (d *kvDriver) txn(w *kvWorker, kind int, key uint64, rec *recorder, t int64) bool {
	span := func(k spanKind) {
		if rec != nil {
			rec.begin(k, t)
		}
	}
	done := func() {
		if rec != nil {
			t = now()
			rec.end(t)
		}
	}
	for try := 0; try <= kvRetries; try++ {
		checked := true
		span(spBegin)
		txn := d.db.Begin()
		done()
		var err error
		switch kind {
		case kvGet:
			span(spGet)
			var val []byte
			val, err = d.kv.Get(w.ctx, txn, key)
			done()
			if err == nil {
				checked = w.checkValue(key, val)
			}
		case kvPut:
			span(spPut)
			err = d.kv.Put(w.ctx, txn, key, w.val[:])
			done()
		case kvScan:
			span(spScan)
			next, seen := key, 0
			err = d.kv.Scan(w.ctx, txn, key, kvScanLen, func(k uint64, val []byte) bool {
				if k != next || !w.checkValue(k, val) {
					checked = false
				}
				next, seen = k+1, seen+1
				return true
			})
			done()
			if err == nil && seen != min(kvScanLen, kvKeys-int(key)) {
				checked = false
			}
		}
		if err == nil {
			span(spCommit)
			err = txn.Commit(w.ctx)
			done()
			if err == nil {
				return checked
			}
		}
		span(spAbort)
		aerr := txn.Abort(w.ctx)
		done()
		if aerr != nil || !errors.Is(err, engine.ErrConflict) {
			return false
		}
		w.retries++
		backoff(try)
	}
	return false
}

// backoff is what a caller does between conflict retries: yield, and once
// that has not helped a few times (the winner's thread is off the CPU, not
// merely unscheduled) sleep a little longer each time.
func backoff(try int) {
	if try < 4 {
		runtime.Gosched()
		return
	}
	time.Sleep(time.Duration(min(try, 20)) * 10 * time.Microsecond)
}

// audit scans the whole table in one transaction and checks that every key
// is there and holds the load's value or some worker's last write.
func (d *kvDriver) audit() error {
	w := d.w[0]
	oracles := make([]*kvOracle, len(d.w))
	for i, x := range d.w {
		oracles[i] = &x.kvOracle
	}
	txn := d.db.Begin()
	next := uint64(0)
	err := d.kv.Scan(w.ctx, txn, 0, 0, func(k uint64, val []byte) bool {
		for ; next < k; next++ { // keys the scan skipped are missing
			w.attempted++
			w.fail()
		}
		w.attempted++
		if !auditValue(oracles, k, val) {
			w.fail()
		}
		next = k + 1
		return true
	})
	if err != nil {
		return err
	}
	for ; next < kvKeys; next++ {
		w.attempted++
		w.fail()
	}
	return txn.Commit(w.ctx)
}

func (d *kvDriver) snap() (counters, error) {
	c := coreCounters(d.bm.Stats())
	addDevice(c, "ssd", d.devs.ssd.Stats())
	addDevice(c, "nvm", d.devs.nvm.Stats())
	addDevice(c, "nvm", d.devs.walNVM.Stats())
	addDevice(c, "dram", d.devs.dram.Stats())
	appends, flushes, wcommits := d.db.WAL().Stats()
	c["wal_appends"], c["wal_flushes"], c["wal_commits"] = float64(appends), float64(flushes), float64(wcommits)
	if d.log != nil {
		c["wal_log_bytes"] = float64(d.log.bytes.Load())
	}
	commits, aborts := d.db.TxnStats()
	c["commits"], c["aborts"] = float64(commits), float64(aborts)
	_, _, retries := totals(d.tallies())
	c["retries"] = float64(retries)
	for _, w := range d.w {
		c["sim_ns"] += float64(w.ctx.Clock.Now())
	}
	c["sim_ns_w0"] = float64(d.w[0].ctx.Clock.Now())
	return c, nil
}
