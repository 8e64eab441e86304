// Package tracereplay drives a Spitfire hierarchy from a recorded key-value
// trace instead of a synthetic generator, so real access patterns can be
// analyzed against candidate hierarchies and migration policies (the
// storage-system design question of §5.3, answered for *your* workload).
//
// The trace format is one operation per line:
//
//	R <key>          read the tuple under key
//	W <key>          update the tuple under key
//	# comment        ignored, as are blank lines
//
// Keys are decimal uint64s. The replayer loads a table covering every key
// in the trace, then streams the operations through one or more workers in
// round-robin shards, measuring virtual-time throughput and latency.
package tracereplay

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/metrics"
	"github.com/spitfire-db/spitfire/internal/zipf"
)

// Op is one trace operation.
type Op struct {
	Write bool
	Key   uint64
}

// Parse reads a trace. It fails on the first malformed line.
func Parse(r io.Reader) ([]Op, error) {
	var ops []Op
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("tracereplay: line %d: want `R|W <key>`, got %q", lineNo, line)
		}
		var write bool
		switch fields[0] {
		case "R", "r":
			write = false
		case "W", "w":
			write = true
		default:
			return nil, fmt.Errorf("tracereplay: line %d: unknown op %q", lineNo, fields[0])
		}
		key, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tracereplay: line %d: bad key: %v", lineNo, err)
		}
		ops = append(ops, Op{Write: write, Key: key})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return nil, errors.New("tracereplay: empty trace")
	}
	return ops, nil
}

// Generate writes a synthetic Zipfian trace (for demos and tests).
func Generate(w io.Writer, ops int, keys uint64, theta float64, writePct int, seed uint64) error {
	rng := zipf.NewRand(seed)
	gen := zipf.NewGenerator(keys, theta, rng)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# synthetic trace: %d ops over %d keys, zipf %.2f, %d%% writes\n",
		ops, keys, theta, writePct)
	for i := 0; i < ops; i++ {
		op := "R"
		if int(rng.Uint64n(100)) < writePct {
			op = "W"
		}
		fmt.Fprintf(bw, "%s %d\n", op, gen.Next())
	}
	return bw.Flush()
}

// Config configures a replay.
type Config struct {
	// BM is the hierarchy under test.
	BM *core.BufferManager
	// TupleSize defaults to 1000 (YCSB-sized tuples).
	TupleSize int
	// Workers shard the trace round-robin; defaults to 1.
	Workers int
}

// Result summarizes a replay.
type Result struct {
	Ops, Committed, Aborted int64
	ElapsedSec              float64 // mean per-worker simulated elapsed time
	Throughput              float64
	LatencyP50Ns            int64
	LatencyP99Ns            int64
	Stats                   core.Stats
	Inclusivity             float64
}

// Replay loads a table covering the trace's key space and streams the
// operations through the configured hierarchy.
func Replay(cfg Config, ops []Op) (Result, error) {
	if cfg.BM == nil {
		return Result{}, errors.New("tracereplay: a buffer manager is required")
	}
	if cfg.TupleSize == 0 {
		cfg.TupleSize = 1000
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}

	db, err := engine.Open(engine.Options{BM: cfg.BM})
	if err != nil {
		return Result{}, err
	}
	tb, err := db.CreateTable(1, "trace", cfg.TupleSize)
	if err != nil {
		return Result{}, err
	}

	// Load every key referenced by the trace.
	maxKey := uint64(0)
	for _, op := range ops {
		if op.Key > maxKey {
			maxKey = op.Key
		}
	}
	ctx := core.NewCtx(0x7ACE)
	if err := tb.Load(ctx, maxKey+1, func(i uint64, p []byte) uint64 { return i }); err != nil {
		return Result{}, err
	}

	// Worker w takes ops w, w+Workers, ... . The workers share the device
	// horizons, so they run on this goroutine and the one furthest behind in
	// virtual time (lowest id on a tie) goes next: a replay repeats exactly.
	type worker struct {
		ctx   *core.Ctx
		next  int // index in ops of the worker's next operation
		start int64
	}
	ws := make([]worker, cfg.Workers)
	for w := range ws {
		ctx := core.NewCtx(uint64(w) + 0x7ACE0)
		ws[w] = worker{ctx: ctx, next: w, start: ctx.Clock.Now()}
	}
	lat := metrics.NewHistogram()
	payload := make([]byte, cfg.TupleSize)
	buf := make([]byte, cfg.TupleSize)
	var out Result
	for {
		var w *worker
		for i := range ws {
			if ws[i].next < len(ops) && (w == nil || ws[i].ctx.Clock.Now() < w.ctx.Clock.Now()) {
				w = &ws[i]
			}
		}
		if w == nil {
			break
		}
		op := ops[w.next]
		w.next += cfg.Workers
		opStart := w.ctx.Clock.Now()
		txn := db.Begin()
		var err error
		if op.Write {
			payload[0]++
			err = tb.Update(w.ctx, txn, op.Key, payload)
		} else {
			err = tb.Read(w.ctx, txn, op.Key, buf)
		}
		if err != nil {
			if aerr := txn.Abort(w.ctx); aerr != nil {
				return out, aerr
			}
			if !errors.Is(err, engine.ErrConflict) {
				return out, err
			}
			out.Aborted++
			continue
		}
		if err := txn.Commit(w.ctx); err != nil {
			return out, err
		}
		out.Committed++
		lat.Observe(w.ctx.Clock.Now() - opStart)
	}

	var sumElapsed int64
	for _, w := range ws {
		sumElapsed += w.ctx.Clock.Now() - w.start
	}
	out.Ops = int64(len(ops))
	out.ElapsedSec = float64(sumElapsed) / float64(cfg.Workers) / 1e9
	if out.ElapsedSec > 0 {
		out.Throughput = float64(out.Committed) / out.ElapsedSec
	}
	out.LatencyP50Ns = lat.Percentile(50)
	out.LatencyP99Ns = lat.Percentile(99)
	out.Stats = cfg.BM.Stats()
	out.Inclusivity = cfg.BM.Inclusivity()
	return out, nil
}
