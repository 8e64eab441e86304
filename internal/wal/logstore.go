package wal

import (
	"sync"

	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// memLogChunk is the size of one MemLog chunk. A flush batch is about half
// a shard's region of the NVM buffer — 1 MiB in the shipped configurations —
// and a batch that straddles a chunk boundary is copied in two pieces, each
// under the size (1 MiB) from which memmove stops reading the destination
// lines it is about to overwrite: 140 µs against 65 µs for 1 MiB into memory
// that has left the caches. At four batches a chunk three in four are
// copied whole, and the slack in the last chunk is still noise next to the
// buffers.
const memLogChunk = 4 << 20

// MemLog is an in-memory LogStore charged against an SSD device model.
//
// The log is a list of fixed-size chunks: Append copies into the last one
// and never moves a byte already logged. Truncate keeps the chunks it just
// emptied as spares for the next checkpoint interval, which refills them
// before allocating, and drops the spares the interval that just ended left
// unused — so the log holds at most what the last two intervals used, and a
// steady-state Append allocates nothing.
type MemLog struct {
	dev *device.Device
	mu  sync.Mutex
	// chunks holds the log in order; every chunk but the last is full
	// (len == cap == memLogChunk).
	chunks [][]byte
	size   int
	// spare are empty chunks handed over by the last Truncate.
	spare [][]byte
}

// NewMemLog creates an in-memory SSD log. A nil device gets Table 1 SSD
// parameters.
func NewMemLog(dev *device.Device) *MemLog {
	if dev == nil {
		dev = device.New(device.SSDParams)
	}
	return &MemLog{dev: dev}
}

// Device returns the cost model in use.
func (l *MemLog) Device() *device.Device { return l.dev }

// Append implements LogStore. An injected torn write genuinely appends only
// the torn prefix of data (the log is byte-appended, so a partial batch is
// exactly what a mid-flush crash leaves behind); recovery's resync scan and
// LSN dedup are what make that safe.
func (l *MemLog) Append(c *vclock.Clock, data []byte) error {
	if _, err := l.dev.WriteErr(c, len(data)); err != nil {
		if frac, torn := device.IsTorn(err); torn {
			if n := int(frac * float64(len(data))); n > 0 && n <= len(data) {
				l.write(data[:n])
			}
		}
		return err
	}
	l.write(data)
	return nil
}

// write copies data onto the end of the log, chunk by chunk.
func (l *MemLog) write(data []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.size += len(data)
	for len(data) > 0 {
		last := len(l.chunks) - 1
		if last < 0 || len(l.chunks[last]) == memLogChunk {
			l.chunks = append(l.chunks, l.emptyChunk())
			last++
		}
		ch := l.chunks[last]
		n := copy(ch[len(ch):memLogChunk], data)
		l.chunks[last] = ch[:len(ch)+n]
		data = data[n:]
	}
}

// emptyChunk takes a spare chunk if the last Truncate left one, and
// allocates otherwise. Called with l.mu held.
func (l *MemLog) emptyChunk() []byte {
	if n := len(l.spare); n > 0 {
		ch := l.spare[n-1]
		l.spare[n-1] = nil
		l.spare = l.spare[:n-1]
		return ch
	}
	return make([]byte, 0, memLogChunk)
}

// ReadAll implements LogStore.
func (l *MemLog) ReadAll(c *vclock.Clock) ([]byte, error) {
	l.mu.Lock()
	out := make([]byte, 0, l.size)
	for _, ch := range l.chunks {
		out = append(out, ch...)
	}
	l.mu.Unlock()
	if _, err := l.dev.ReadErr(c, len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

// Truncate implements LogStore.
func (l *MemLog) Truncate(c *vclock.Clock) error {
	if _, err := l.dev.WriteErr(c, 1); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.spare) // spares the interval that just ended did not need
	l.spare = l.spare[:0]
	for i, ch := range l.chunks {
		l.spare = append(l.spare, ch[:0])
		l.chunks[i] = nil
	}
	l.chunks = l.chunks[:0]
	l.size = 0
	return nil
}

// Len returns the current log size in bytes.
func (l *MemLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}
