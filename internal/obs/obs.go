// Package obs is the observability layer for the Spitfire reproduction:
// a lock-free per-worker migration tracer, latency histograms over every
// hot path, and live exposition (Prometheus text, JSON snapshots with
// interval deltas, Chrome trace_event export, pprof).
//
// The package sits below every subsystem it observes: it imports only
// internal/metrics and the standard library, so core, device, wal, anneal
// and the harness can all depend on it without cycles. A nil *Obs (and a
// nil *Ring) is a valid no-op everywhere — the disabled fast path is a
// single nil check, benchmarked in core's BenchmarkFetchTraced.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/spitfire-db/spitfire/internal/metrics"
)

// Config sizes the observability layer.
type Config struct {
	// RingSize is the per-worker event ring capacity, rounded up to a power
	// of two. Default 1024. A full ring overwrites its oldest events.
	RingSize int
	// MaxRings caps how many tracer rings are ever allocated. Workers past
	// the cap get a nil (no-op) ring, so experiment sweeps that churn
	// through thousands of short-lived contexts don't accumulate memory.
	// Default 256.
	MaxRings int
}

// Hist identifies one of the fixed hot-path latency histograms.
type Hist int

// The hot-path histogram registry. All record simulated nanoseconds.
const (
	HFetchDRAM    Hist = iota // fetch that hit a full DRAM page
	HFetchMini                // fetch that hit a DRAM mini page
	HFetchNVM                 // fetch served from NVM (direct or promoted)
	HFetchMiss                // fetch that went to SSD
	HEvictDRAM                // DRAM frame eviction (incl. write-back)
	HEvictNVM                 // NVM frame eviction
	HDevNVMRead               // NVM device read (per op, incl. retries)
	HDevNVMWrite              // NVM device write
	HDevSSDRead               // SSD device read
	HDevSSDWrite              // SSD device write
	HWALAppend                // WAL append (buffer copy + flush if forced)
	HWALFlush                 // WAL buffer flush to the log device
	HCleanerBatch             // one cleaner replenish batch
	NumHists
)

// histNames index by Hist; these become Prometheus metric names
// (spitfire_<name>_ns) and snapshot keys.
var histNames = [NumHists]string{
	"fetch_dram", "fetch_mini", "fetch_nvm", "fetch_miss",
	"evict_dram", "evict_nvm",
	"dev_nvm_read", "dev_nvm_write", "dev_ssd_read", "dev_ssd_write",
	"wal_append", "wal_flush", "cleaner_batch",
}

// Name returns the histogram's snake_case exposition name.
func (h Hist) Name() string { return histNames[h] }

// Sample is one named numeric reading from a Source.
type Sample struct {
	Name  string
	Value int64
}

// Source is implemented by whatever owns the system under observation
// (typically a harness Env): it supplies monotonic counters and point-in-
// time gauges for the live exposition endpoints. Both methods must be safe
// to call from the HTTP serving goroutine while the run is in progress.
type Source interface {
	// ObsCounters returns monotonically increasing totals (hits per tier,
	// migrations, device bytes, WAL appends...).
	ObsCounters() []Sample
	// ObsGauges returns instantaneous values (free frames, dirty frames,
	// resident pages per tier, virtual seconds elapsed).
	ObsGauges() []Sample
}

// Obs is the root observability object. One instance observes one system
// (buffer manager + devices + WAL); share it across the subsystems via
// their configs. All methods are safe on a nil receiver.
type Obs struct {
	cfg   Config
	hists [NumHists]*metrics.Histogram

	mu     sync.Mutex
	rings  []*Ring
	capped int // workers refused a ring by MaxRings

	// Auxiliary histograms created on demand by name (the server's
	// per-route request latencies); exposed after the fixed registry so the
	// default exposition is unchanged when nothing registers one.
	namedMu sync.Mutex
	named   map[string]*metrics.Histogram

	// Experiment-phase tracking (warmup vs measure): baselines taken at
	// BeginPhase, per-phase deltas computed at EndPhase.
	phaseMu   sync.Mutex
	phaseName string
	phaseBase map[string]metrics.HistSnapshot
	phases    []PhaseSnapshot

	source atomic.Pointer[sourceBox]
}

// sourceBox wraps a Source so atomic.Pointer works with interface values.
type sourceBox struct{ s Source }

// New creates an Obs with the given sizing (zero values take defaults).
func New(cfg Config) *Obs {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	// Round up to a power of two for the ring mask.
	sz := 1
	for sz < cfg.RingSize {
		sz <<= 1
	}
	cfg.RingSize = sz
	if cfg.MaxRings <= 0 {
		cfg.MaxRings = 256
	}
	o := &Obs{cfg: cfg}
	for i := range o.hists {
		o.hists[i] = metrics.NewHistogram()
	}
	return o
}

// Hist returns the named hot-path histogram, or nil when o is nil. Callers
// keep the returned pointer and nil-check it on the hot path.
func (o *Obs) Hist(h Hist) *metrics.Histogram {
	if o == nil {
		return nil
	}
	return o.hists[h]
}

// NamedHistogram pairs an on-demand histogram with its exposition name.
type NamedHistogram struct {
	Name string
	H    *metrics.Histogram
}

// NamedHist returns the auxiliary histogram registered under name, creating
// it on first use. Returns nil (a valid no-op observer is not available for
// histograms, so callers nil-check) when o is nil.
func (o *Obs) NamedHist(name string) *metrics.Histogram {
	if o == nil {
		return nil
	}
	o.namedMu.Lock()
	defer o.namedMu.Unlock()
	if o.named == nil {
		o.named = map[string]*metrics.Histogram{}
	}
	h := o.named[name]
	if h == nil {
		h = metrics.NewHistogram()
		o.named[name] = h
	}
	return h
}

// NamedHists returns a name-sorted copy of the auxiliary histogram registry.
func (o *Obs) NamedHists() []NamedHistogram {
	if o == nil {
		return nil
	}
	o.namedMu.Lock()
	defer o.namedMu.Unlock()
	out := make([]NamedHistogram, 0, len(o.named))
	for name, h := range o.named {
		out = append(out, NamedHistogram{Name: name, H: h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NewRing allocates (and registers) a tracer ring for one worker. Returns
// nil — a valid no-op ring — when o is nil or MaxRings is exhausted.
func (o *Obs) NewRing(label string) *Ring {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.rings) >= o.cfg.MaxRings {
		o.capped++
		return nil
	}
	r := &Ring{
		id:    len(o.rings) + 1,
		label: label,
		mask:  uint64(o.cfg.RingSize - 1),
		slots: make([]ringSlot, o.cfg.RingSize),
	}
	o.rings = append(o.rings, r)
	return r
}

// RingCount reports allocated rings and how many workers were refused one.
func (o *Obs) RingCount() (allocated, capped int) {
	if o == nil {
		return 0, 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.rings), o.capped
}

// SetSource installs the live counter/gauge source for exposition. Safe to
// call at any time, including nil to detach.
func (o *Obs) SetSource(s Source) {
	if o == nil {
		return
	}
	if s == nil {
		o.source.Store(nil)
		return
	}
	o.source.Store(&sourceBox{s: s})
}

// getSource returns the installed Source or nil.
func (o *Obs) getSource() Source {
	if o == nil {
		return nil
	}
	if b := o.source.Load(); b != nil {
		return b.s
	}
	return nil
}

// sortedSamples returns a name-sorted copy (exposition must be stable).
func sortedSamples(in []Sample) []Sample {
	out := make([]Sample, len(in))
	copy(out, in)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
