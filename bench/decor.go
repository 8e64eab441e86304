package main

import (
	"sync/atomic"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/ssd"
	"github.com/spitfire-db/spitfire/internal/vclock"
	"github.com/spitfire-db/spitfire/internal/wal"
)

// The decorators below sit on the program's injectable interfaces. Only a
// traced run's stack has them (an untraced run measures the undecorated
// facade), and they record only while a tracer is armed — the traced pass;
// in the run's other passes each costs one atomic load. The program passes
// the calling worker's *vclock.Clock to every one of these methods, which is
// how a span finds its goroutine's recorder.

// tap is the switch shared by a stack's decorators.
type tap struct{ tr atomic.Pointer[tracer] }

func (t *tap) rec(c *vclock.Clock) *recorder {
	tr := t.tr.Load()
	if tr == nil {
		return nil
	}
	return tr.forClock(c)
}

type tracedSSD struct {
	ssd.Store
	tap *tap
}

func (s tracedSSD) ReadPage(c *vclock.Clock, pid uint64, buf []byte) error {
	r := s.tap.rec(c)
	if r == nil {
		return s.Store.ReadPage(c, pid, buf)
	}
	r.begin(spSSDRead, now())
	err := s.Store.ReadPage(c, pid, buf)
	r.end(now())
	return err
}

func (s tracedSSD) WritePage(c *vclock.Clock, pid uint64, buf []byte) error {
	r := s.tap.rec(c)
	if r == nil {
		return s.Store.WritePage(c, pid, buf)
	}
	r.begin(spSSDWrite, now())
	err := s.Store.WritePage(c, pid, buf)
	r.end(now())
	return err
}

// tracedLog also counts the bytes the WAL hands to its store: the manager
// exposes append and flush counts but not volume.
type tracedLog struct {
	wal.LogStore
	tap   *tap
	bytes atomic.Int64
}

func (l *tracedLog) Append(c *vclock.Clock, data []byte) error {
	l.bytes.Add(int64(len(data)))
	r := l.tap.rec(c)
	if r == nil {
		return l.LogStore.Append(c, data)
	}
	r.begin(spLogAppend, now())
	err := l.LogStore.Append(c, data)
	r.end(now())
	return err
}

func (l *tracedLog) Truncate(c *vclock.Clock) error {
	r := l.tap.rec(c)
	if r == nil {
		return l.LogStore.Truncate(c)
	}
	r.begin(spLogTruncate, now())
	err := l.LogStore.Truncate(c)
	r.end(now())
	return err
}

type tracedCharger struct {
	core.MemCharger
	tap *tap
}

func (m tracedCharger) ChargeRead(c *vclock.Clock, off int64, n int) {
	r := m.tap.rec(c)
	if r == nil {
		m.MemCharger.ChargeRead(c, off, n)
		return
	}
	r.begin(spChargeRead, now())
	m.MemCharger.ChargeRead(c, off, n)
	r.end(now())
}

func (m tracedCharger) ChargeWrite(c *vclock.Clock, off int64, n int) {
	r := m.tap.rec(c)
	if r == nil {
		m.MemCharger.ChargeWrite(c, off, n)
		return
	}
	r.begin(spChargeWrite, now())
	m.MemCharger.ChargeWrite(c, off, n)
	r.end(now())
}
