package harness

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/wal"
	"github.com/spitfire-db/spitfire/internal/ycsb"
	"github.com/spitfire-db/spitfire/internal/zipf"
)

// The torture workload's table: small fixed tuples whose first eight bytes
// carry a per-key sequence number and whose remainder is a deterministic
// fill derived from (key, seq), so a single read both identifies which write
// survived and proves the tuple is not torn.
const (
	tortureTableID   = 7
	tortureTupleSize = 512
)

// noSeq marks a key with no write in flight at the crash.
const noSeq = ^uint64(0)

// TortureOpts configures the crash-recovery torture harness.
type TortureOpts struct {
	// Cycles is how many crash-recover rounds to run (default 100).
	Cycles int
	// Workers is the number of concurrent writer goroutines (default 4).
	// Keys are partitioned across workers so every key has one writer.
	Workers int
	// Keys is the number of distinct keys (default 2048).
	Keys int
	// OpsPerCycle is the per-worker update budget before the cycle's crash
	// window closes (default 150).
	OpsPerCycle int
	// Seed makes the whole torture run deterministic for a given goroutine
	// schedule; distinct seeds explore distinct crash points.
	Seed uint64
	// TransientProb sprinkles transient read/write/torn faults on the NVM
	// data arena during the workload phase (default 0: crash faults only).
	// The WAL and SSD devices stay fault-free outside crash points so commit
	// acknowledgements remain trustworthy.
	TransientProb float64
	// FineGrained tortures the cache-line-grained loading path (§2.1):
	// DRAM frames backed by an NVM copy fault 256 B units in on demand, so
	// crashes and transient faults land mid-unit-fill instead of on
	// whole-page copies.
	FineGrained bool
	// Shards splits the WAL's NVM buffer into this many worker-affine
	// append regions (default 1: the single-buffer layout), so crashes land
	// between concurrent shard appends and combined group-commit flushes.
	Shards int
	// Log, if non-nil, receives progress lines.
	Log func(format string, args ...any)
}

func (o TortureOpts) withDefaults() TortureOpts {
	if o.Cycles <= 0 {
		o.Cycles = 100
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Keys <= 0 {
		o.Keys = 2048
	}
	if o.OpsPerCycle <= 0 {
		o.OpsPerCycle = 150
	}
	if o.Seed == 0 {
		o.Seed = 0x70A7
	}
	return o
}

// TortureResult summarizes a torture run.
type TortureResult struct {
	Cycles      int   // crash-recover rounds completed
	Commits     int64 // acknowledged transactions across all cycles
	OpErrors    int64 // operations failed by injected faults (mostly the crash)
	MidRunTrips int   // cycles whose crash tripped during the workload
	TornWrites  int64 // torn writes injected at crash points

	// Aggregated WAL recovery stats across all cycles.
	Recovery wal.RecoveryStats

	// Violations lists every invariant breach found (empty on success).
	Violations []string
}

// torture is the harness state threaded through one run.
type torture struct {
	opts TortureOpts
	rng  *zipf.Rand

	// Simulated machine, its log buffer on a DIMM of its own, and one crash
	// switch shared by the injectors of its SSD, data DIMM and log DIMM.
	m      *engine.Machine
	crash  *device.CrashSwitch
	ssdInj *device.Injector
	nvmInj *device.Injector
	walInj *device.Injector

	db *engine.DB

	// Per-key write bookkeeping (index = key-1). Workers touch only their
	// partition during a cycle; the verifier touches everything between
	// cycles (ordered by the workers' WaitGroup).
	acked   []uint64 // last acknowledged-committed seq
	pending []uint64 // seq in flight at the crash, or noSeq
	nextSeq []uint64

	res TortureResult
}

// Torture runs the crash-recovery torture harness: randomized single-writer
// workloads killed at randomized injected crash points (mid-migration,
// mid-WAL-flush, mid-cleaner-batch — wherever the machine-wide write
// countdown lands), followed by pmem rollback, full recovery, a structural
// consistency audit, and a value check that every key holds either its last
// acknowledged write or the one write that was in flight — never anything
// else, and never a torn tuple.
func Torture(opts TortureOpts) (*TortureResult, error) {
	t := &torture{opts: opts.withDefaults()}
	t.rng = zipf.NewRand(t.opts.Seed | 1)
	t.acked = make([]uint64, t.opts.Keys)
	t.pending = make([]uint64, t.opts.Keys)
	t.nextSeq = make([]uint64, t.opts.Keys)
	for i := range t.pending {
		t.pending[i] = noSeq
		t.nextSeq[i] = 1
	}

	if err := t.boot(); err != nil {
		return nil, err
	}
	for c := 0; c < t.opts.Cycles; c++ {
		if err := t.cycle(c); err != nil {
			return &t.res, err
		}
		if len(t.res.Violations) >= 20 {
			break
		}
		t.logf("cycle %d/%d: commits=%d violations=%d",
			c+1, t.opts.Cycles, t.res.Commits, len(t.res.Violations))
	}
	t.db.BM().Close()
	t.res.TornWrites = t.ssdInj.Stats().TornWrites +
		t.nvmInj.Stats().TornWrites + t.walInj.Stats().TornWrites
	return &t.res, nil
}

func (t *torture) logf(format string, args ...any) {
	if t.opts.Log != nil {
		t.opts.Log(format, args...)
	}
}

// spec is the torture machine. Its buffer capacities make the database (~70
// pages at 512 B tuples over 2048 keys) outgrow NVM, which outgrows DRAM, so
// every cycle migrates pages across all three tiers.
func (t *torture) spec() engine.Spec {
	pages := int64(t.opts.Keys)*tortureTupleSize/core.PageSize + 1
	return engine.Spec{
		DRAMBytes:    max(pages/3, 2) * core.PageSize,
		NVMBytes:     max(pages*2/3, 4) * core.NVMFrameSlot,
		Policy:       policy.SpitfireEager,
		FineGrained:  t.opts.FineGrained,
		WALShards:    t.opts.Shards,
		LogDIMM:      true,
		TrackCrashes: true,
	}
}

// boot builds the simulated machine, arms its injectors before any device
// traffic, and loads the initial database.
func (t *torture) boot() error {
	t.m = engine.Build(t.spec())
	t.crash = device.NewCrashSwitch()
	t.ssdInj = device.NewInjector(device.FaultConfig{Seed: t.opts.Seed ^ 0x55D})
	t.nvmInj = device.NewInjector(t.nvmFaultCfg(t.opts.Seed ^ 0x4E4))
	t.walInj = device.NewInjector(device.FaultConfig{Seed: t.opts.Seed ^ 0x3A1})
	for _, in := range []*device.Injector{t.ssdInj, t.nvmInj, t.walInj} {
		in.AttachCrash(t.crash)
	}
	t.m.Pages.Device().SetFaults(t.ssdInj)
	t.m.Data.Device().SetFaults(t.nvmInj)
	t.m.Log.Device().SetFaults(t.walInj)

	db, err := t.m.Open()
	if err != nil {
		return err
	}
	db.BM().StartCleaners()
	tb, err := db.CreateTable(tortureTableID, "torture", tortureTupleSize)
	if err != nil {
		return err
	}
	ctx := core.NewCtx(t.opts.Seed ^ 0xB007)
	err = tb.Load(ctx, uint64(t.opts.Keys), func(i uint64, p []byte) uint64 {
		tortureFill(p, i+1, 0)
		return i + 1
	})
	if err != nil {
		return err
	}
	t.db = db
	return nil
}

// nvmFaultCfg is the data arena's workload-phase fault mix.
func (t *torture) nvmFaultCfg(seed uint64) device.FaultConfig {
	p := t.opts.TransientProb
	return device.FaultConfig{
		Seed:          seed,
		ReadErrProb:   p,
		WriteErrProb:  p,
		TornWriteProb: p / 2,
		StallProb:     p,
		StallNs:       50_000,
	}
}

// cycle runs one workload-crash-recover-verify round.
func (t *torture) cycle(c int) error {
	o := t.opts
	// Workload-phase faults: transient errors on the data arena only (the
	// recovery and verification phases below rearm everything fault-free).
	t.nvmInj.Rearm(t.nvmFaultCfg(o.Seed ^ uint64(c)<<12 ^ 0x4E4))
	// Arm the machine-wide crash point. Each transaction issues a handful of
	// checked writes (WAL records, page installs, migrations), so this span
	// usually lands the crash mid-workload; when the workers drain first, the
	// machine is killed at the quiescent boundary instead.
	span := uint64(o.Workers*o.OpsPerCycle) * 6
	t.crash.Arm(int64(1 + t.rng.Uint64n(span)))

	tb := t.db.Table(tortureTableID)
	var commits, opErrs atomic.Int64
	var wg sync.WaitGroup
	for wi := 0; wi < o.Workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			ctx := core.NewCtx(o.Seed ^ uint64(c)<<20 ^ uint64(wi)<<4)
			rng := zipf.NewRand(o.Seed + uint64(c)*0x9E37 + uint64(wi)*0x79B9 | 1)
			// This worker's key partition.
			var keys []uint64
			for k := wi; k < o.Keys; k += o.Workers {
				keys = append(keys, uint64(k))
			}
			buf := make([]byte, tortureTupleSize)
			for i := 0; i < o.OpsPerCycle && !t.crash.Tripped(); i++ {
				ki := keys[rng.Uint64n(uint64(len(keys)))]
				key := ki + 1
				seq := t.nextSeq[ki]
				t.nextSeq[ki]++
				t.pending[ki] = seq
				tortureFill(buf, key, seq)
				txn := t.db.Begin()
				err := tb.Update(ctx, txn, key, buf)
				if err == nil {
					err = txn.Commit(ctx)
				} else {
					_ = txn.Abort(ctx) // best-effort; fails once crashed
				}
				if err == nil {
					t.acked[ki] = seq
					t.pending[ki] = noSeq
					commits.Add(1)
				} else {
					opErrs.Add(1)
					if t.crash.Tripped() {
						return // machine is dead; stop issuing work
					}
					// A transient fault escaped the retry budget: the txn
					// aborted, but whether its images reached the log is
					// unknown, so the seq stays pending.
				}
			}
		}(wi)
	}
	wg.Wait()
	t.res.Commits += commits.Load()
	t.res.OpErrors += opErrs.Load()

	if t.crash.Tripped() {
		t.res.MidRunTrips++
	} else {
		t.crash.Trip() // workers drained first: kill at the quiescent boundary
	}

	// Power loss: stop the background cleaners, roll every unpersisted store
	// back, and discard all volatile state (the old BM, engine, and WAL
	// manager are never touched again).
	t.m.Crash()

	// Reboot fault-free: clear the trip, reseed the injectors. Recovery,
	// verification and the checkpoint all run on a healthy machine.
	t.crash.Arm(0)
	t.ssdInj.Rearm(device.FaultConfig{Seed: o.Seed ^ uint64(c)<<8 ^ 0x55D})
	t.nvmInj.Rearm(device.FaultConfig{Seed: o.Seed ^ uint64(c)<<8 ^ 0x4E4})
	t.walInj.Rearm(device.FaultConfig{Seed: o.Seed ^ uint64(c)<<8 ^ 0x3A1})

	// Recover: NVM arena scan, log completion + redo/undo, directory rebuild.
	// The cleaners stay off until the audit passes.
	rctx := engine.NewRecoveryCtx()
	db, rl, err := t.m.Recover(rctx, []engine.TableDef{{ID: tortureTableID, Name: "torture", TupleSize: tortureTupleSize}}, nil)
	if err != nil {
		return fmt.Errorf("cycle %d: recovery: %w", c, err)
	}
	t.db = db
	bm := db.BM()
	st := rl.Stats
	t.res.Recovery.BufferRecords += st.BufferRecords
	t.res.Recovery.FileRecords += st.FileRecords
	t.res.Recovery.ChecksumMismatches += st.ChecksumMismatches
	t.res.Recovery.SkippedBytes += st.SkippedBytes
	t.res.Recovery.TruncatedTailBytes += st.TruncatedTailBytes
	t.res.Recovery.DuplicateLSNs += st.DuplicateLSNs

	// Structural audit before anything else runs against the manager.
	if err := bm.CheckConsistency(); err != nil {
		t.violate("cycle %d: %v", c, err)
	}

	// Value audit: every key must hold its last acknowledged write or the
	// one write in flight at the crash, with an intact deterministic fill.
	t.verify(rctx, c)

	// Recover ended with a checkpoint, so the log file stays short. Restart
	// the cleaners for the next cycle's workload.
	bm.StartCleaners()
	t.res.Cycles++
	return nil
}

func (t *torture) violate(format string, args ...any) {
	if len(t.res.Violations) < 20 {
		t.res.Violations = append(t.res.Violations, fmt.Sprintf(format, args...))
	}
}

// verify reads every key back and checks the recovered value against the
// acknowledged/pending bookkeeping, then re-bases the bookkeeping on what
// recovery actually chose (an in-flight write whose commit record reached
// the durable log is committed even though the worker never saw the ack).
func (t *torture) verify(ctx *core.Ctx, c int) {
	tb := t.db.Table(tortureTableID)
	txn := t.db.Begin()
	buf := make([]byte, tortureTupleSize)
	want := make([]byte, tortureTupleSize)
	for ki := 0; ki < t.opts.Keys; ki++ {
		key := uint64(ki) + 1
		if err := tb.Read(ctx, txn, key, buf); err != nil {
			t.violate("cycle %d: key %d unreadable after recovery: %v", c, key, err)
			continue
		}
		seq := binary.LittleEndian.Uint64(buf[:8])
		if seq != t.acked[ki] && seq != t.pending[ki] {
			t.violate("cycle %d: key %d recovered seq %d, want %d (acked) or %d (in flight)",
				c, key, seq, t.acked[ki], t.pending[ki])
			continue
		}
		tortureFill(want, key, seq)
		if !bytesEqual(buf, want) {
			t.violate("cycle %d: key %d seq %d has a torn/garbled payload", c, key, seq)
			continue
		}
		t.acked[ki] = seq
		t.pending[ki] = noSeq
	}
	if err := txn.Commit(ctx); err != nil {
		t.violate("cycle %d: verification txn commit: %v", c, err)
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tortureFill writes the deterministic tuple image for (key, seq): the seq
// word followed by an xorshift stream seeded from both, so any torn or
// cross-wired recovery shows up as a payload mismatch.
func tortureFill(buf []byte, key, seq uint64) {
	binary.LittleEndian.PutUint64(buf[:8], seq)
	x := key*0x9E3779B97F4A7C15 ^ seq*0xBF58476D1CE4E5B9 | 1
	for i := 8; i < len(buf); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
}

// DegradedOpts configures the two-tier degradation run.
type DegradedOpts struct {
	// Workers and OpsPerWorker size the YCSB run (defaults 4 × 600).
	Workers, OpsPerWorker int
	// FailAfterWrites kills the NVM data arena permanently after that many
	// checked writes (default 300), which lands mid-run.
	FailAfterWrites int64
	// DBBytes sizes the YCSB table (default 1 MB).
	DBBytes int64
	Seed    uint64
}

func (o DegradedOpts) withDefaults() DegradedOpts {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.OpsPerWorker <= 0 {
		o.OpsPerWorker = 600
	}
	if o.FailAfterWrites <= 0 {
		o.FailAfterWrites = 300
	}
	if o.DBBytes <= 0 {
		o.DBBytes = 1 << 20
	}
	if o.Seed == 0 {
		o.Seed = 0xDE64
	}
	return o
}

// DegradedResult summarizes a degradation run.
type DegradedResult struct {
	Committed, Aborted int64
	OpErrors           int64 // ops that failed during or after the tier loss
	TailCommits        int64 // commits after degradation was observed
	Degraded           bool  // the manager collapsed to two tiers
	Stats              core.Stats
}

// Degraded runs YCSB-WH on a three-tier hierarchy whose NVM data arena fails
// permanently mid-run, and verifies the manager collapses to two-tier
// DRAM–SSD mode and keeps committing. The WAL buffer lives on a separate
// (healthy) NVM DIMM, so logging — and therefore durability — survives the
// data-tier loss.
func Degraded(opts DegradedOpts) (*DegradedResult, error) {
	o := opts.withDefaults()

	m := engine.Build(engine.Spec{
		DRAMBytes: o.DBBytes / 8,
		NVMBytes:  o.DBBytes / 2,
		Policy:    policy.SpitfireEager,
		LogDIMM:   true,
	})
	m.Data.Device().SetFaults(device.NewInjector(device.FaultConfig{Seed: o.Seed, FailAfterWrites: o.FailAfterWrites}))
	db, err := m.Open()
	if err != nil {
		return nil, err
	}
	bm := db.BM()
	bm.StartCleaners()
	defer bm.Close()
	wl, err := ycsb.Setup(db, ycsb.RecordsForBytes(o.DBBytes), ycsb.DefaultTheta)
	if err != nil {
		return nil, err
	}

	res := &DegradedResult{}
	var opErrs, tail atomic.Int64
	var wg sync.WaitGroup
	for wi := 0; wi < o.Workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			wk := wl.NewWorker(o.Seed + uint64(wi)*0x9E37)
			for i := 0; i < o.OpsPerWorker; i++ {
				ok, err := wk.Op(ycsb.WriteHeavy)
				if err != nil {
					// The tier loss surfaces as typed I/O errors on the ops
					// that were touching NVM; degradation reroutes the rest.
					opErrs.Add(1)
					continue
				}
				if ok && bm.NVMDegraded() {
					tail.Add(1)
				}
			}
			atomic.AddInt64(&res.Committed, wk.Committed)
			atomic.AddInt64(&res.Aborted, wk.Aborted)
		}(wi)
	}
	wg.Wait()
	res.OpErrors = opErrs.Load()
	res.TailCommits = tail.Load()
	res.Degraded = bm.NVMDegraded()
	res.Stats = bm.Stats()
	if !res.Degraded {
		return res, errors.New("harness: NVM tier never degraded (FailAfterWrites too high for the run?)")
	}
	if res.TailCommits == 0 {
		return res, errors.New("harness: no commits completed in two-tier degraded mode")
	}
	p := bm.Policy()
	if p.Nr != 0 || p.Nw != 0 {
		return res, fmt.Errorf("harness: degraded policy still routes to NVM: Nr=%v Nw=%v", p.Nr, p.Nw)
	}
	return res, nil
}
