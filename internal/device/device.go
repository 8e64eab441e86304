// Package device simulates the three storage devices of Spitfire's
// hierarchy — DRAM, Optane DC PMM (NVM), and an Optane SSD — using the
// characteristics reported in Table 1 of the paper.
//
// A Device charges simulated time to per-worker virtual clocks. Each access
// pays a fixed latency plus a bandwidth term. Bandwidth is a shared resource:
// the device keeps a "horizon" (the virtual time at which it next becomes
// free), so concurrent workers queue behind one another and the device
// saturates exactly as a real one does. This is what produces the paper's
// multi-threaded effects (e.g. the SSD becoming the bottleneck at 16 workers
// in Figures 6 and 7).
//
// Devices also count media-level traffic: bytes are rounded up to the media
// access granularity (64 B for DRAM, 256 B for Optane PMMs, 16 KB for the
// SSD), which is how the paper accounts for I/O amplification (Figure 11)
// and NVM wear (Figures 8 and 13).
package device

import (
	"fmt"
	"sync/atomic"

	"github.com/spitfire-db/spitfire/internal/metrics"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// Kind identifies the tier a device belongs to.
type Kind int

const (
	DRAM Kind = iota
	NVM
	SSD
)

// String returns the conventional name of the device kind.
func (k Kind) String() string {
	switch k {
	case DRAM:
		return "DRAM"
	case NVM:
		return "NVM"
	case SSD:
		return "SSD"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Params describes the performance characteristics of a device. Bandwidths
// are in bytes per nanosecond (1 GB/s == 1 byte/ns), latencies in
// nanoseconds, granularity in bytes.
type Params struct {
	Kind           Kind
	ReadLatency    int64   // latency charged once per read operation
	WriteLatency   int64   // latency charged once per write operation
	ReadBandwidth  float64 // bytes per nanosecond
	WriteBandwidth float64
	Granularity    int     // media access granularity; transfers round up to it
	PricePerGB     float64 // used by the storage-system design experiments
}

// Table 1 of the paper, converted to simulator parameters. Bandwidths use
// the random-access figures since buffer-pool traffic is random at page
// granularity; the NVM read figure is between the random (28.8 GB/s) and
// sequential (91.2 GB/s) numbers because 16 KB page copies are sequential
// within the page.
var (
	DRAMParams = Params{
		Kind: DRAM, ReadLatency: 80, WriteLatency: 80,
		ReadBandwidth: 180, WriteBandwidth: 180,
		Granularity: 64, PricePerGB: 10,
	}
	NVMParams = Params{
		Kind: NVM, ReadLatency: 320, WriteLatency: 200,
		ReadBandwidth: 30, WriteBandwidth: 8,
		Granularity: 256, PricePerGB: 4.5,
	}
	SSDParams = Params{
		Kind: SSD, ReadLatency: 12_000, WriteLatency: 12_000,
		ReadBandwidth: 2.5, WriteBandwidth: 2.4,
		Granularity: 16384, PricePerGB: 2.8,
	}
)

// trafficStripes is how many per-worker blocks a device's traffic counters are
// spread over. A worker counts in block Worker() % trafficStripes, so two
// workers charging the same device write the shared horizon and nothing else.
const trafficStripes = 8

// trafficStripe is one worker's share of a device's traffic counters (bytes
// are media-granularity bytes). The padding puts 96 bytes between one
// stripe's counters and the next's, so no cache line holds two stripes'
// counters wherever the allocator places the Device.
type trafficStripe struct {
	readOps, writeOps       atomic.Int64
	bytesRead, bytesWritten atomic.Int64
	_                       [96]byte
}

// Device is a simulated storage device shared by all workers.
//
// The fields every charge reads and nothing writes after set-up come first;
// the horizon — the one word every worker CASes — has 56 bytes of padding on
// either side, which keeps every other field off its cache line at any
// 8-byte alignment; the striped traffic counters follow.
type Device struct {
	p Params

	faults atomic.Pointer[Injector]

	// Optional per-operation latency histograms (observed in simulated
	// nanoseconds, including queueing behind the bandwidth horizon). Nil
	// unless an observability layer attached them.
	hRead  atomic.Pointer[metrics.Histogram]
	hWrite atomic.Pointer[metrics.Histogram]

	_       [56]byte
	horizon atomic.Int64 // virtual time at which the device next becomes free
	_       [56]byte

	traffic [trafficStripes]trafficStripe
}

// New creates a device with the given parameters.
func New(p Params) *Device {
	if p.Granularity <= 0 {
		p.Granularity = 1
	}
	return &Device{p: p}
}

// Params returns the device's configured parameters.
func (d *Device) Params() Params { return d.p }

// Kind returns the device's tier.
func (d *Device) Kind() Kind { return d.p.Kind }

func (d *Device) roundUp(n int) int64 {
	g := int64(d.p.Granularity)
	return (int64(n) + g - 1) / g * g
}

// occupy reserves the device for busy nanoseconds starting no earlier than
// the worker's current virtual time, and returns the completion time of the
// transfer. This is a conservative single-queue model: requests are serviced
// in the order workers issue them. The horizon advances by lock-free CAS —
// a mutex here would put one lock hand-off per simulated transfer on every
// worker's commit path, serializing the real machine where only the modeled
// device should serialize.
func (d *Device) occupy(now, busy int64) int64 {
	for {
		h := d.horizon.Load()
		start := h
		if now > start {
			start = now
		}
		end := start + busy
		if d.horizon.CompareAndSwap(h, end) {
			return end
		}
	}
}

// Read charges a read of n bytes to the worker's clock and returns the
// media-level bytes transferred.
func (d *Device) Read(c *vclock.Clock, n int) int64 {
	media := d.roundUp(n)
	busy := int64(float64(media) / d.p.ReadBandwidth)
	start := c.Now()
	end := d.occupy(start, busy)
	c.AdvanceTo(end + d.p.ReadLatency)
	t := &d.traffic[c.Worker()%trafficStripes]
	t.readOps.Add(1)
	t.bytesRead.Add(media)
	if h := d.hRead.Load(); h != nil {
		h.Observe(c.Now() - start)
	}
	return media
}

// Write charges a write of n bytes to the worker's clock and returns the
// media-level bytes transferred.
func (d *Device) Write(c *vclock.Clock, n int) int64 {
	media := d.roundUp(n)
	busy := int64(float64(media) / d.p.WriteBandwidth)
	start := c.Now()
	end := d.occupy(start, busy)
	c.AdvanceTo(end + d.p.WriteLatency)
	t := &d.traffic[c.Worker()%trafficStripes]
	t.writeOps.Add(1)
	t.bytesWritten.Add(media)
	if h := d.hWrite.Load(); h != nil {
		h.Observe(c.Now() - start)
	}
	return media
}

// SetLatencyHistograms attaches (or with nils detaches) per-operation
// latency histograms. Every Read/Write — including each attempt of a
// retried checked operation — observes its simulated duration: queueing
// behind the shared bandwidth horizon plus the device latency.
func (d *Device) SetLatencyHistograms(read, write *metrics.Histogram) {
	d.hRead.Store(read)
	d.hWrite.Store(write)
}

// SetFaults attaches (or, with nil, detaches) a fault injector. Only the
// checked ReadErr/WriteErr entry points consult it; the legacy Read/Write
// paths below are deliberately fault-free so pricing-only call sites (memory
// chargers, recovery cost accounting) never fail.
func (d *Device) SetFaults(in *Injector) { d.faults.Store(in) }

// Faults returns the attached fault injector, if any.
func (d *Device) Faults() *Injector { return d.faults.Load() }

// ReadErr is the checked variant of Read: it consults the attached fault
// injector (charging injected stalls to the worker's clock) before charging
// the transfer. Injected errors wrap ErrTransient, ErrPermanent or
// ErrCrashed and name the tier.
func (d *Device) ReadErr(c *vclock.Clock, n int) (int64, error) {
	if in := d.faults.Load(); in != nil {
		if err := in.beforeRead(c); err != nil {
			return 0, fmt.Errorf("%s read: %w", d.p.Kind, err)
		}
	}
	return d.Read(c, n), nil
}

// WriteErr is the checked variant of Write. A torn write (TornError in the
// chain) still charges the full transfer — the bus traffic happened — and
// the caller is responsible for applying only the torn prefix to media.
func (d *Device) WriteErr(c *vclock.Clock, n int) (int64, error) {
	if in := d.faults.Load(); in != nil {
		if err := in.beforeWrite(c); err != nil {
			if _, torn := IsTorn(err); torn {
				media := d.Write(c, n)
				return media, fmt.Errorf("%s write: %w", d.p.Kind, err)
			}
			return 0, fmt.Errorf("%s write: %w", d.p.Kind, err)
		}
	}
	return d.Write(c, n), nil
}

// Stats is a point-in-time snapshot of a device's counters.
type Stats struct {
	ReadOps, WriteOps       int64
	BytesRead, BytesWritten int64 // media-granularity bytes
}

// Stats returns a snapshot of the device's counters, summed over the stripes.
func (d *Device) Stats() Stats {
	var s Stats
	for i := range d.traffic {
		t := &d.traffic[i]
		s.ReadOps += t.readOps.Load()
		s.WriteOps += t.writeOps.Load()
		s.BytesRead += t.bytesRead.Load()
		s.BytesWritten += t.bytesWritten.Load()
	}
	return s
}

// ResetStats zeroes the traffic counters (the bandwidth horizon is kept, as
// resetting it would let a fresh measurement interval travel back in time).
func (d *Device) ResetStats() {
	for i := range d.traffic {
		t := &d.traffic[i]
		t.readOps.Store(0)
		t.writeOps.Store(0)
		t.bytesRead.Store(0)
		t.bytesWritten.Store(0)
	}
}
