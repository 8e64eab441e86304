package pmem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

func TestReadWriteRoundTrip(t *testing.T) {
	p := New(Options{Size: 4096})
	c := vclock.New()
	data := []byte("hello, persistent world")
	p.Write(c, 100, data)
	got := make([]byte, len(data))
	p.Read(c, 100, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip: got %q, want %q", got, data)
	}
}

func TestCrashRevertsUnpersistedWrites(t *testing.T) {
	p := New(Options{Size: 4096, TrackCrashes: true})
	c := vclock.New()

	p.Write(c, 0, []byte("durable"))
	p.Persist(c, 0, 7)
	p.Write(c, 0, []byte("ephemer"))
	if p.UnpersistedLines() == 0 {
		t.Fatal("expected unpersisted lines after write")
	}

	p.Crash()

	got := make([]byte, 7)
	p.Read(c, 0, got)
	if string(got) != "durable" {
		t.Fatalf("after crash: %q, want %q", got, "durable")
	}
	if p.UnpersistedLines() != 0 {
		t.Fatal("crash left unpersisted lines")
	}
}

func TestPersistMakesWritesDurable(t *testing.T) {
	p := New(Options{Size: 4096, TrackCrashes: true})
	c := vclock.New()
	p.Write(c, 256, []byte("committed"))
	p.Persist(c, 256, 9)
	p.Crash()
	got := make([]byte, 9)
	p.Read(c, 256, got)
	if string(got) != "committed" {
		t.Fatalf("persisted data lost in crash: %q", got)
	}
}

func TestPartialPersist(t *testing.T) {
	// Two writes to different cache lines; only one persisted.
	p := New(Options{Size: 4096, TrackCrashes: true})
	c := vclock.New()
	p.Write(c, 0, []byte("AAAA"))
	p.Write(c, 128, []byte("BBBB"))
	p.Persist(c, 0, 4)
	p.Crash()
	a, b := make([]byte, 4), make([]byte, 4)
	p.Read(c, 0, a)
	p.Read(c, 128, b)
	if string(a) != "AAAA" {
		t.Fatalf("persisted line lost: %q", a)
	}
	if string(b) != "\x00\x00\x00\x00" {
		t.Fatalf("unpersisted line survived crash: %q", b)
	}
}

func TestCrashWithoutTrackingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Crash on untracked arena did not panic")
		}
	}()
	New(Options{Size: 64}).Crash()
}

func TestOutOfBoundsPanics(t *testing.T) {
	p := New(Options{Size: 64})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds write did not panic")
		}
	}()
	p.Write(vclock.New(), 60, []byte("overflow"))
}

func TestBytesAlias(t *testing.T) {
	p := New(Options{Size: 1024})
	c := vclock.New()
	p.Write(c, 512, []byte{1, 2, 3})
	b := p.Bytes(512, 3)
	if b[0] != 1 || b[1] != 2 || b[2] != 3 {
		t.Fatalf("Bytes view = %v", b)
	}
	if len(b) != 3 || cap(b) != 3 {
		t.Fatalf("Bytes view not capacity-clamped: len=%d cap=%d", len(b), cap(b))
	}
}

// TestReadViewChargesLikeReadErr: ReadView charges the read ReadErr charges,
// through the same fault injector, and returns the arena's own bytes.
func TestReadViewChargesLikeReadErr(t *testing.T) {
	view, copied := New(Options{Size: 4096}), New(Options{Size: 4096})
	vc, cc := vclock.New(), vclock.New()
	view.Write(vc, 256, []byte{7, 8, 9})
	copied.Write(cc, 256, []byte{7, 8, 9})
	buf := make([]byte, 512)
	if err := copied.ReadErr(cc, 0, buf); err != nil {
		t.Fatal(err)
	}
	v, err := view.ReadView(vc, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, buf) || &v[0] != &view.Bytes(0, 512)[0] || cap(v) != 512 {
		t.Fatal("ReadView did not return the arena's own, capacity-clamped bytes")
	}
	if vc.Now() != cc.Now() || view.Device().Stats() != copied.Device().Stats() {
		t.Fatalf("ReadView charged %d ns %+v, ReadErr %d ns %+v",
			vc.Now(), view.Device().Stats(), cc.Now(), copied.Device().Stats())
	}

	view.Device().SetFaults(device.NewInjector(device.FaultConfig{ReadErrProb: 1}))
	if v, err := view.ReadView(vc, 0, 512); v != nil || !errors.Is(err, device.ErrTransient) {
		t.Fatalf("ReadView under a faulty device = %v, %v; want nil, ErrTransient", v != nil, err)
	}
}

func TestChargesDevice(t *testing.T) {
	p := New(Options{Size: 4096})
	c := vclock.New()
	p.Write(c, 0, make([]byte, 256))
	if c.Now() == 0 {
		t.Fatal("write did not advance virtual time")
	}
	st := p.Device().Stats()
	if st.BytesWritten != 256 {
		t.Fatalf("device recorded %d bytes written, want 256", st.BytesWritten)
	}
}

// Property: for any sequence of (write, maybe-persist) operations followed
// by a crash, every byte equals the last persisted write covering it (or
// zero). We model with a shadow array updated only at persist points.
func TestQuickCrashConsistency(t *testing.T) {
	const size = 2048
	f := func(ops []struct {
		Off     uint16
		Val     byte
		Persist bool
	}) bool {
		p := New(Options{Size: size, TrackCrashes: true})
		c := vclock.New()
		model := make([]byte, size)   // persisted state
		current := make([]byte, size) // in-cache state
		for _, op := range ops {
			off := int64(op.Off) % size
			p.Write(c, off, []byte{op.Val})
			current[off] = op.Val
			if op.Persist {
				p.Persist(c, off, 1)
				// Persisting one byte persists its whole cache line.
				line := off / CacheLineSize * CacheLineSize
				copy(model[line:line+CacheLineSize], current[line:line+CacheLineSize])
			}
		}
		p.Crash()
		got := make([]byte, size)
		p.Read(c, 0, got)
		return bytes.Equal(got, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteUnitsChargesLikeWriteErr: WriteUnits of a mask charges, faults,
// tears and persists exactly as WriteErr of the whole range does, and
// stores only the named units. Each trial writes the same range of two
// identical arenas, one with each call, under injectors with the same seed,
// then crashes both: before and after the crash the WriteUnits arena holds
// the WriteErr arena's bytes in the named units and its old bytes elsewhere.
func TestWriteUnitsChargesLikeWriteErr(t *testing.T) {
	const size, off, n = 4096, 512, 2048 // 64 units of 32 bytes
	faults := []device.FaultConfig{
		{},
		{TornWriteProb: 1},
		{WriteErrProb: 1},
		{WriteErrProb: 0.3, TornWriteProb: 0.5, StallProb: 0.5, StallNs: 900},
	}
	f := func(units uint64, seed uint64, kind uint8, persist bool) bool {
		cfg := faults[int(kind)%len(faults)]
		cfg.Seed = seed
		base, data := make([]byte, size), make([]byte, n)
		for i := range base {
			base[i] = byte(i * 7)
		}
		for i := range data {
			data[i] = byte(i*13) | 1
		}
		arena := func() (*PMem, *vclock.Clock) {
			p := New(Options{Size: size, TrackCrashes: true})
			c := vclock.New()
			p.Write(c, 0, base)
			p.PersistAll(c)
			p.Device().ResetStats()
			p.Device().SetFaults(device.NewInjector(cfg))
			return p, vclock.New()
		}
		whole, wc := arena()
		masked, mc := arena()
		werr := whole.WriteErr(wc, off, data)
		merr := masked.WriteUnits(mc, off, data, units)
		if (werr == nil) != (merr == nil) || werr != nil && werr.Error() != merr.Error() {
			t.Logf("WriteErr = %v, WriteUnits = %v", werr, merr)
			return false
		}
		if persist {
			whole.Persist(wc, off, n)
			masked.Persist(mc, off, n)
		}
		if wc.Now() != mc.Now() || whole.Device().Stats() != masked.Device().Stats() {
			t.Logf("WriteErr charged %d ns %+v, WriteUnits %d ns %+v",
				wc.Now(), whole.Device().Stats(), mc.Now(), masked.Device().Stats())
			return false
		}
		same := func(when string) bool {
			w, m := whole.Bytes(0, size), masked.Bytes(0, size)
			want := append([]byte(nil), base...)
			for u := 0; u < 64; u++ {
				if units&(1<<u) != 0 {
					lo, hi := off+u*n/64, off+(u+1)*n/64
					copy(want[lo:hi], w[lo:hi])
				}
			}
			if !bytes.Equal(m, want) {
				t.Logf("%s: units %#x of a WriteUnits arena differ from WriteErr's, or other bytes moved", when, units)
				return false
			}
			return true
		}
		if !same("after the write") {
			return false
		}
		whole.Crash()
		masked.Crash()
		return same("after a crash")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestHostStoreSurvivesCrash: a host store charges nothing and is durable
// at once. Crash rolls back the unpersisted write it shares a cache line
// with but not the host store; once the injector has crashed, a host store
// fails with ErrCrashed and stores nothing.
func TestHostStoreSurvivesCrash(t *testing.T) {
	p := New(Options{Size: 1024, TrackCrashes: true})
	c := vclock.New()
	p.Write(c, 128, []byte{1, 2, 3, 4, 5, 6, 7, 8}) // unpersisted
	before, now := p.Device().Stats(), c.Now()
	if err := p.HostStore(132, []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := p.HostStore(300, []byte{7, 7, 7}); err != nil { // a line with no pending store
		t.Fatal(err)
	}
	if p.Device().Stats() != before || c.Now() != now {
		t.Fatal("a host store charged the device")
	}
	if got := p.Bytes(128, 8); !bytes.Equal(got, []byte{1, 2, 3, 4, 9, 9, 7, 8}) {
		t.Fatalf("before the crash the line reads %v", got)
	}
	p.Crash()
	if got := p.Bytes(128, 8); !bytes.Equal(got, []byte{0, 0, 0, 0, 9, 9, 0, 0}) {
		t.Fatalf("after the crash the line reads %v, want only the host store kept", got)
	}
	if got := p.Bytes(300, 3); !bytes.Equal(got, []byte{7, 7, 7}) {
		t.Fatalf("a host store on a clean line rolled back to %v", got)
	}
	if p.Device().Stats() != before {
		t.Fatal("the device stats moved")
	}

	in := device.NewInjector(device.FaultConfig{})
	sw := device.NewCrashSwitch()
	in.AttachCrash(sw)
	p.Device().SetFaults(in)
	sw.Trip()
	if err := p.HostStore(300, []byte{1, 1, 1}); !errors.Is(err, device.ErrCrashed) {
		t.Fatalf("host store after the crash = %v, want ErrCrashed", err)
	}
	if got := p.Bytes(300, 3); !bytes.Equal(got, []byte{7, 7, 7}) {
		t.Fatalf("a refused host store landed: %v", got)
	}
}
