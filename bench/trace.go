package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spitfire-db/spitfire/internal/vclock"
)

// epoch anchors the rig's monotonic clock; it is also the closest the
// process gets to its own start time.
var epoch = time.Now()

// now returns monotonic nanoseconds since the process started.
func now() int64 { return int64(time.Since(epoch)) }

// spanKind names a layer boundary the rig can see from outside: a public
// call it makes itself, or a call the program makes into one of the
// decorated injectable interfaces.
type spanKind uint8

const (
	spOp spanKind = iota // one whole operation: the root of its spans
	spFetch
	spRead
	spWrite
	spRelease
	spBegin
	spGet
	spPut
	spScan
	spCommit
	spAbort
	spCheckpoint
	spSSDRead
	spSSDWrite
	spLogAppend
	spLogTruncate
	spChargeRead
	spChargeWrite
	spRequest
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"bench.op",
	"core.FetchPage", "core.ReadAt", "core.WriteAt", "core.Release",
	"engine.Begin", "engine.KV.Get", "engine.KV.Put", "engine.KV.Scan",
	"engine.Commit", "engine.Abort", "engine.Checkpoint",
	"ssd.ReadPage", "ssd.WritePage",
	"wal.LogStore.Append", "wal.LogStore.Truncate",
	"device.ChargeRead", "device.ChargeWrite",
	"server.request",
}

// spanLayer is the module a span's self time is charged to.
var spanLayer = [nSpanKinds]string{
	"bench",
	"core", "core", "core", "core",
	"engine", "engine", "engine", "engine", "engine", "engine", "engine",
	"ssd", "ssd",
	"wal", "wal",
	"device", "device",
	"server",
}

const (
	rawSpanCap = 200_000 // spans kept verbatim for the trace file, per run
	durCap     = 1 << 20 // durations kept per kind for exact percentiles
)

type rawSpan struct {
	kind       spanKind
	tid        uint16
	parent     int32 // index of the enclosing span in the same recorder's raw list, -1 for a root
	op         uint32
	start, end int64
}

type openSpan struct {
	kind     spanKind
	raw      int32
	start    int64
	children int64 // time covered by direct children
}

type kindAgg struct {
	count, total int64
	// self is time in spans of this kind not covered by their children,
	// counted only inside an operation (a bench.op root): checkpoints and
	// background goroutines run beside the operations, not inside them.
	self int64
	durs []uint32
}

// recorder collects the spans of one goroutine. It is not shared: workers
// own theirs, and each background goroutine the decorators meet gets its own.
type recorder struct {
	tid   uint16
	name  string
	op    uint32
	stack []openSpan
	raw   []rawSpan
	agg   [nSpanKinds]kindAgg
	quota *atomic.Int64 // raw spans the run may still keep, shared by its recorders
}

func (r *recorder) begin(k spanKind, t int64) {
	raw := int32(-1)
	if r.quota.Add(-1) >= 0 {
		parent := int32(-1)
		if n := len(r.stack); n > 0 {
			parent = r.stack[n-1].raw
		}
		raw = int32(len(r.raw))
		r.raw = append(r.raw, rawSpan{kind: k, tid: r.tid, parent: parent, op: r.op, start: t})
	}
	r.stack = append(r.stack, openSpan{kind: k, raw: raw, start: t})
}

func (r *recorder) end(t int64) {
	n := len(r.stack) - 1
	s := r.stack[n]
	r.stack = r.stack[:n]
	d := t - s.start
	if n > 0 {
		r.stack[n-1].children += d
	}
	if s.raw >= 0 {
		r.raw[s.raw].end = t
	}
	a := &r.agg[s.kind]
	a.count++
	a.total += d
	if s.kind == spOp || (n > 0 && r.stack[0].kind == spOp) {
		a.self += d - s.children
	}
	if len(a.durs) < durCap {
		a.durs = append(a.durs, uint32(min(d, 1<<32-1)))
	}
}

// span records a closed child span [t0, t1) under whatever is open.
func (r *recorder) span(k spanKind, t0, t1 int64) {
	r.begin(k, t0)
	r.end(t1)
}

// tracer is one traced pass: the recorders of its workers, found by the
// *vclock.Clock the program hands to every decorated call, plus one recorder
// per goroutine that calls in with a clock the rig never issued (the buffer
// manager's cleaners).
type tracer struct {
	quota atomic.Int64
	mu    sync.RWMutex
	byClk map[*vclock.Clock]*recorder
	all   []*recorder
}

func newTracer() *tracer {
	t := &tracer{byClk: make(map[*vclock.Clock]*recorder)}
	t.quota.Store(rawSpanCap)
	return t
}

func (t *tracer) add(name string, clk *vclock.Clock) *recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &recorder{tid: uint16(len(t.all) + 1), name: name, quota: &t.quota}
	r.stack = make([]openSpan, 0, 16)
	t.all = append(t.all, r)
	if clk != nil {
		t.byClk[clk] = r
	}
	return r
}

// forClock returns the recorder of the goroutine that owns clk.
func (t *tracer) forClock(clk *vclock.Clock) *recorder {
	t.mu.RLock()
	r := t.byClk[clk]
	t.mu.RUnlock()
	if r == nil {
		r = t.add("core.cleaner", clk)
	}
	return r
}

// recorders returns every recorder of the pass, background goroutines'
// included. Read them only once those goroutines have stopped.
func (t *tracer) recorders() []*recorder {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return slices.Clone(t.all)
}

// layerSelf sums self time per layer over recs.
func layerSelf(recs []*recorder) map[string]int64 {
	out := make(map[string]int64)
	for _, r := range recs {
		for k := range r.agg {
			out[spanLayer[k]] += r.agg[k].self
		}
	}
	return out
}

// merged returns the aggregate of kind k over recs, durations sorted.
func merged(recs []*recorder, k spanKind) kindAgg {
	var out kindAgg
	for _, r := range recs {
		a := &r.agg[k]
		out.count += a.count
		out.total += a.total
		out.self += a.self
		out.durs = append(out.durs, a.durs...)
	}
	slices.Sort(out.durs)
	return out
}

func (a kindAgg) mean() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.total) / float64(a.count)
}

// writeChrome writes the kept spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto). args carry the parent span and the
// operation id so one operation's spans can be pulled together.
func (t *tracer) writeChrome(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteByte('\n')
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.all {
		sep()
		fmt.Fprintf(w, `{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%q}}`, r.tid, r.name)
		for i, s := range r.raw {
			if s.end == 0 {
				continue // still open when the pass ended
			}
			sep()
			fmt.Fprintf(w, `{"ph":"X","pid":1,"tid":%d,"name":%q,"cat":%q,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op":%d}}`,
				s.tid, spanNames[s.kind], spanLayer[s.kind],
				float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.op)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}
