// Package pmem simulates an Optane DC Persistent Memory Module exposed in
// app-direct (fsdax) mode.
//
// The paper maps a file on /mnt/pmem0 and manages the resulting pointer
// directly, persisting cache lines with clwb+sfence. Go cannot map real
// persistent memory, so this package provides the same contract over a
// byte-addressable arena:
//
//   - Read/Write access arbitrary byte ranges and charge the NVM device
//     model (256 B media granularity, Table 1 latencies/bandwidths).
//   - Write is *not* durable by itself: stores land in the simulated CPU
//     cache. Persist(off, n) models clwb of the covered cache lines followed
//     by an sfence; only then is the range durable.
//   - WriteUnits charges and persists like a write of a whole range but
//     stores only the units a mask names; HostStore stores bytes the medium
//     already holds, uncharged and durable at once. Together they let the
//     buffer manager install a page the SSD store lends without copying it.
//   - Crash() models power loss: every store that was never persisted is
//     rolled back to its last persisted contents. Recovery tests restart a
//     buffer manager on top of the surviving arena.
//
// The rollback log ("shadow") keeps the previous persisted image of each
// dirty cache line, so memory overhead is proportional to the volume of
// unpersisted data, not to the arena size.
package pmem

import (
	"fmt"
	"math/bits"
	"sync"

	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/hostmem"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// CacheLineSize is the CPU cache-line granularity at which clwb operates.
const CacheLineSize = 64

// PMem is a simulated persistent-memory arena.
type PMem struct {
	dev  *device.Device
	mem  *hostmem.Region // keeps data mapped while the PMem lives
	data []byte

	// trackCrashes enables the shadow log. Experiments that never crash
	// (throughput sweeps) disable it to avoid bookkeeping overhead.
	trackCrashes bool

	mu     sync.Mutex
	shadow map[int64][]byte // line index -> last persisted image of that line
}

// Options configures a PMem arena.
type Options struct {
	// Size of the arena in bytes.
	Size int64
	// Device is the cost model to charge; if nil a fresh device with
	// Table 1 NVM parameters is created.
	Device *device.Device
	// TrackCrashes enables Crash()/Persist() shadow bookkeeping.
	TrackCrashes bool
}

// New creates a zeroed arena of the given size. Its bytes are a host
// mapping (hostmem.Map), not a Go heap object: the host backs only the parts
// ever written, and the mapping goes with the PMem. A slice of the arena
// (Bytes, ReadView) keeps nothing alive; its user holds the PMem.
func New(opts Options) *PMem {
	dev := opts.Device
	if dev == nil {
		dev = device.New(device.NVMParams)
	}
	mem := hostmem.Map(int(opts.Size))
	p := &PMem{
		dev:          dev,
		mem:          mem,
		data:         mem.Bytes(),
		trackCrashes: opts.TrackCrashes,
	}
	if opts.TrackCrashes {
		p.shadow = make(map[int64][]byte)
	}
	return p
}

// Size returns the arena size in bytes.
func (p *PMem) Size() int64 { return int64(len(p.data)) }

// Device returns the underlying cost model (for traffic statistics).
func (p *PMem) Device() *device.Device { return p.dev }

func (p *PMem) check(off int64, n int) {
	if off < 0 || n < 0 || off+int64(n) > int64(len(p.data)) {
		panic(fmt.Sprintf("pmem: access [%d, %d) out of bounds of arena of %d bytes",
			off, off+int64(n), len(p.data)))
	}
}

// Read copies len(buf) bytes at off into buf, charging the NVM device.
func (p *PMem) Read(c *vclock.Clock, off int64, buf []byte) {
	p.check(off, len(buf))
	p.dev.Read(c, len(buf))
	copy(buf, p.data[off:off+int64(len(buf))])
}

// Write copies data to off, charging the NVM device. The write is volatile
// until the range is covered by a Persist call.
func (p *PMem) Write(c *vclock.Clock, off int64, data []byte) {
	p.check(off, len(data))
	p.dev.Write(c, len(data))
	if p.trackCrashes {
		p.saveShadow(off, len(data))
	}
	copy(p.data[off:off+int64(len(data))], data)
}

// ReadErr is the checked variant of Read: it consults the device's fault
// injector (if attached) and fails without copying when the read faults.
func (p *PMem) ReadErr(c *vclock.Clock, off int64, buf []byte) error {
	v, err := p.ReadView(c, off, len(buf))
	if err != nil {
		return err
	}
	copy(buf, v)
	return nil
}

// ReadView is ReadErr without the copy: it makes the bounds check, device
// charge and fault-injector call, then returns the arena's own n bytes at
// off. The view is read-only, and it holds the range's contents only until
// the range is next written (or rolled back by Crash); the caller keeps
// writers off the range while it uses the view, and keeps p reachable
// until its last use of it, as with Bytes.
func (p *PMem) ReadView(c *vclock.Clock, off int64, n int) ([]byte, error) {
	p.check(off, n)
	if _, err := p.dev.ReadErr(c, n); err != nil {
		return nil, err
	}
	return p.data[off : off+int64(n) : off+int64(n)], nil
}

// WriteErr is the checked variant of Write. On a torn write, the fault's
// prefix fraction of data genuinely reaches the arena AND is persisted
// (power loss flushes lines in arbitrary order, so the torn prefix must be
// assumed durable); the remainder of the range is untouched. Callers that
// need crash-atomic installs must therefore order payload writes before the
// validity marker.
func (p *PMem) WriteErr(c *vclock.Clock, off int64, data []byte) error {
	p.check(off, len(data))
	n, err := p.writeCharge(c, len(data))
	// Aligned stores of at most 8 bytes are torn-atomic (x86-64 guarantees
	// 8-byte store atomicity on pmem): model "nothing landed" rather than a
	// garbled word. The WAL's extent word relies on this.
	if len(data) <= 8 && off%8 == 0 && err != nil {
		n = 0
	}
	p.store(off, data[:n], err != nil)
	return err
}

// WriteUnits is WriteErr of the units of data named in units only: bit u
// covers bytes [u*k, (u+1)*k) of data and of the range at off, where
// k = len(data)/64. It charges, consults the fault injector and persists a
// torn prefix exactly as WriteErr(c, off, data) does, but it stores only the
// named units (of a torn write, the part of them inside the prefix); the
// range's other bytes keep what they held. len(data) must be a multiple of
// 64. The buffer manager installs a page the SSD store lends with it: the
// install is charged in full while the host copies only the units the
// arena must hold.
func (p *PMem) WriteUnits(c *vclock.Clock, off int64, data []byte, units uint64) error {
	p.check(off, len(data))
	if len(data)%64 != 0 {
		panic(fmt.Sprintf("pmem: WriteUnits of %d bytes, not a multiple of 64 units", len(data)))
	}
	n, err := p.writeCharge(c, len(data))
	k := len(data) / 64
	for units != 0 {
		lo := bits.TrailingZeros64(units)
		hi := lo + bits.TrailingZeros64(^(units >> lo))
		units &= ^uint64(0) << hi // a shift by 64 clears them all
		if end := min(hi*k, n); lo*k < end {
			p.store(off+int64(lo*k), data[lo*k:end], err != nil)
		}
	}
	return err
}

// writeCharge charges a write of n bytes through the fault injector and
// reports how many of them reach the arena: all on success, the torn
// prefix on a torn write, none on any other failure.
func (p *PMem) writeCharge(c *vclock.Clock, n int) (int, error) {
	_, err := p.dev.WriteErr(c, n)
	if err == nil {
		return n, nil
	}
	frac, torn := device.IsTorn(err)
	if !torn {
		return 0, err
	}
	return min(int(frac*float64(n)), n), err
}

// store copies data to off. A store that is not durable keeps the covered
// lines' pre-images for Crash; a durable one (a torn prefix, which power
// loss itself flushes) leaves none.
func (p *PMem) store(off int64, data []byte, durable bool) {
	if len(data) == 0 {
		return
	}
	if p.trackCrashes && !durable {
		p.saveShadow(off, len(data))
	}
	copy(p.data[off:off+int64(len(data))], data)
	if durable {
		p.dropShadows(off, len(data))
	}
}

// HostStore puts data at off as bytes the medium already holds: the caller
// has charged the device for them, or they record only where the host keeps
// bytes the device holds. It charges nothing and is durable at once — Crash
// does not roll it back. A pending pre-image of a line it covers takes its
// bytes too, so the line's other unpersisted stores still roll back. Once
// the device's fault injector has crashed, HostStore stores nothing and
// fails with device.ErrCrashed: nothing lands after the power is gone.
func (p *PMem) HostStore(off int64, data []byte) error {
	p.check(off, len(data))
	if in := p.dev.Faults(); in != nil && in.Crashed() {
		return fmt.Errorf("%s host store: %w", p.dev.Kind(), device.ErrCrashed)
	}
	copy(p.data[off:off+int64(len(data))], data)
	if !p.trackCrashes || len(data) == 0 {
		return nil
	}
	end := off + int64(len(data))
	p.mu.Lock()
	for line := off / CacheLineSize; line*CacheLineSize < end; line++ {
		if img, ok := p.shadow[line]; ok {
			lo, hi := max(off, line*CacheLineSize), min(end, (line+1)*CacheLineSize)
			copy(img[lo-line*CacheLineSize:hi-line*CacheLineSize], data[lo-off:hi-off])
		}
	}
	p.mu.Unlock()
	return nil
}

// PersistErr is the checked variant of Persist: it fails (without dropping
// shadows) when the device is crashed or permanently failed, so an sfence
// on a dead DIMM does not count as durability.
func (p *PMem) PersistErr(c *vclock.Clock, off int64, n int) error {
	if in := p.dev.Faults(); in != nil {
		if in.Crashed() {
			return fmt.Errorf("%s persist: %w", p.dev.Kind(), device.ErrCrashed)
		}
		if in.Failed() {
			return fmt.Errorf("%s persist: %w", p.dev.Kind(), device.ErrPermanent)
		}
	}
	p.Persist(c, off, n)
	return nil
}

// dropShadows marks the covered lines persisted without charging the clock
// (used for torn prefixes, which power loss itself flushes).
func (p *PMem) dropShadows(off int64, n int) {
	if !p.trackCrashes || n <= 0 {
		return
	}
	first := off / CacheLineSize
	last := (off + int64(n) - 1) / CacheLineSize
	p.mu.Lock()
	for line := first; line <= last; line++ {
		delete(p.shadow, line)
	}
	p.mu.Unlock()
}

// saveShadow records the pre-image of every cache line the write touches,
// unless a pre-image for that line is already pending.
func (p *PMem) saveShadow(off int64, n int) {
	first := off / CacheLineSize
	last := (off + int64(n) - 1) / CacheLineSize
	p.mu.Lock()
	for line := first; line <= last; line++ {
		if _, ok := p.shadow[line]; ok {
			continue
		}
		img := make([]byte, CacheLineSize)
		copy(img, p.data[line*CacheLineSize:(line+1)*CacheLineSize])
		p.shadow[line] = img
	}
	p.mu.Unlock()
}

// Persist models `clwb` over every cache line intersecting [off, off+n)
// followed by an `sfence`: after it returns, the range survives Crash.
// A small fixed cost is charged per line to model the write-back.
func (p *PMem) Persist(c *vclock.Clock, off int64, n int) {
	if n <= 0 {
		return
	}
	p.check(off, n)
	first := off / CacheLineSize
	last := (off + int64(n) - 1) / CacheLineSize
	// clwb is asynchronous; the sfence pays for the slowest line. Model the
	// pair as one NVM write-latency stall plus per-line media occupancy,
	// which the device's Write path already accounts; here we only drop
	// shadows and charge the fence.
	c.Advance(device.NVMParams.WriteLatency)
	if !p.trackCrashes {
		return
	}
	p.mu.Lock()
	for line := first; line <= last; line++ {
		delete(p.shadow, line)
	}
	p.mu.Unlock()
}

// PersistAll persists the entire arena (used when seeding test fixtures).
func (p *PMem) PersistAll(c *vclock.Clock) {
	p.Persist(c, 0, len(p.data))
}

// Crash simulates power failure: every cache line with unpersisted stores
// reverts to its last persisted image. Callers must guarantee no concurrent
// access (the machine is "off").
func (p *PMem) Crash() {
	if !p.trackCrashes {
		panic("pmem: Crash called on an arena created without TrackCrashes")
	}
	p.mu.Lock()
	for line, img := range p.shadow {
		copy(p.data[line*CacheLineSize:(line+1)*CacheLineSize], img)
	}
	p.shadow = make(map[int64][]byte)
	p.mu.Unlock()
}

// UnpersistedLines reports how many cache lines currently hold unpersisted
// stores. Useful for asserting that persistence points were honored.
func (p *PMem) UnpersistedLines() int {
	if !p.trackCrashes {
		return 0
	}
	p.mu.Lock()
	n := len(p.shadow)
	p.mu.Unlock()
	return n
}

// Bytes exposes the raw arena. It exists so the buffer manager can hand out
// zero-copy NVM frame slices; callers must charge traffic via Read/Write or
// the device directly, and must not retain slices across Crash. The slice
// keeps nothing alive: the caller keeps p reachable until its last use of
// the slice (runtime.KeepAlive), or the read faults on an unmapped arena.
func (p *PMem) Bytes(off int64, n int) []byte {
	p.check(off, n)
	return p.data[off : off+int64(n) : off+int64(n)]
}
