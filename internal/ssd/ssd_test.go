package ssd

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

func page(fill byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = fill
	}
	return p
}

func testStore(t *testing.T, s Store) {
	t.Helper()
	c := vclock.New()

	buf := make([]byte, PageSize)
	if err := s.ReadPage(c, 7, buf); err == nil {
		t.Fatal("read of missing page succeeded")
	}
	if s.Contains(7) {
		t.Fatal("Contains(7) before write")
	}

	want := page(0xAB)
	if err := s.WritePage(c, 7, want); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(7) {
		t.Fatal("Contains(7) false after write")
	}
	if err := s.ReadPage(c, 7, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("read back wrong contents")
	}

	// Overwrite.
	want2 := page(0xCD)
	if err := s.WritePage(c, 7, want2); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadPage(c, 7, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want2) {
		t.Fatal("overwrite not visible")
	}

	// Wrong-size buffers are rejected.
	if err := s.ReadPage(c, 7, make([]byte, 10)); err == nil {
		t.Fatal("short read buffer accepted")
	}
	if err := s.WritePage(c, 7, make([]byte, 10)); err == nil {
		t.Fatal("short write buffer accepted")
	}
}

func TestMemStore(t *testing.T) { testStore(t, NewMem(nil)) }

func TestMemStoreConcurrent(t *testing.T) {
	s := NewMem(nil)
	const workers = 8
	const pagesPerWorker = 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := vclock.New()
			for i := 0; i < pagesPerWorker; i++ {
				pid := uint64(w*pagesPerWorker + i)
				if err := s.WritePage(c, pid, page(byte(pid))); err != nil {
					t.Error(err)
					return
				}
			}
			buf := make([]byte, PageSize)
			for i := 0; i < pagesPerWorker; i++ {
				pid := uint64(w*pagesPerWorker + i)
				if err := s.ReadPage(c, pid, buf); err != nil {
					t.Error(err)
					return
				}
				if buf[0] != byte(pid) {
					t.Errorf("page %d corrupted", pid)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != workers*pagesPerWorker {
		t.Fatalf("store has %d pages, want %d", s.Len(), workers*pagesPerWorker)
	}
}

func TestChargesDevice(t *testing.T) {
	s := NewMem(nil)
	c := vclock.New()
	if err := s.WritePage(c, 0, page(1)); err != nil {
		t.Fatal(err)
	}
	if c.Now() == 0 {
		t.Fatal("write did not advance virtual time")
	}
	if st := s.Device().Stats(); st.BytesWritten != PageSize {
		t.Fatalf("device recorded %d bytes, want %d", st.BytesWritten, PageSize)
	}
	// Failed reads must not charge the device.
	before := s.Device().Stats().ReadOps
	_ = s.ReadPage(c, 999, page(0))
	if s.Device().Stats().ReadOps != before {
		t.Fatal("failed read charged the device")
	}
}

// TestMemStoreLend pins Lend's contract: it charges exactly what ReadPage
// charges, through the same fault injector, and lends the page's own backing
// array, which a later WritePage rewrites in place. Relend returns the same
// array and charges nothing.
func TestMemStoreLend(t *testing.T) {
	s := NewMem(nil)
	c := vclock.New()
	if _, err := s.Lend(c, 5); err == nil {
		t.Fatal("Lend of a missing page succeeded")
	}
	if st := s.Device().Stats(); st.ReadOps != 0 || c.Now() != 0 {
		t.Fatalf("Lend of a missing page charged %d reads, %d ns", st.ReadOps, c.Now())
	}
	if err := s.WritePage(c, 5, page(0x11)); err != nil {
		t.Fatal(err)
	}

	// The same read on a twin store through ReadPage: same clock, same counts.
	twin := NewMem(nil)
	tc := vclock.New()
	if err := twin.WritePage(tc, 5, page(0x11)); err != nil {
		t.Fatal(err)
	}
	if err := twin.ReadPage(tc, 5, make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
	lent, err := s.Lend(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lent, page(0x11)) || len(lent) != PageSize || cap(lent) != PageSize {
		t.Fatalf("lent page has len %d cap %d and the wrong bytes", len(lent), cap(lent))
	}
	if c.Now() != tc.Now() {
		t.Fatalf("write+Lend took %d ns, write+ReadPage %d ns", c.Now(), tc.Now())
	}
	if got, want := s.Device().Stats(), twin.Device().Stats(); got != want {
		t.Fatalf("Lend counted %+v, ReadPage %+v", got, want)
	}

	if err := s.WritePage(c, 5, page(0x22)); err != nil {
		t.Fatal(err)
	}
	again, err := s.Lend(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &lent[0] || lent[0] != 0x22 {
		t.Fatal("a page write did not rewrite the lent backing array in place")
	}

	s.Device().SetFaults(device.NewInjector(device.FaultConfig{ReadErrProb: 1}))
	if _, err := s.Lend(c, 5); !errors.Is(err, device.ErrTransient) {
		t.Fatalf("Lend under a faulty device = %v; want ErrTransient", err)
	}

	// Relend hands back the same array, charging and faulting nothing.
	st, now := s.Device().Stats(), c.Now()
	if re, err := s.Relend(5); err != nil || &re[0] != &lent[0] || len(re) != PageSize || cap(re) != PageSize {
		t.Fatalf("Relend = %v; want the lent array", err)
	}
	if _, err := s.Relend(6); err == nil {
		t.Fatal("Relend of a missing page succeeded")
	}
	if s.Device().Stats() != st || c.Now() != now {
		t.Fatal("Relend charged the device")
	}
}

// TestMemStoreFirstWritesRace writes distinct pages of one directory block
// for the first time from several goroutines while others poll Contains,
// MaxPageID and Len. A page Contains reports is never past MaxPageID, and
// neither count goes down; afterwards every page reads back, Len is exact
// and MaxPageID is the largest id written. Run it under -race.
func TestMemStoreFirstWritesRace(t *testing.T) {
	const (
		writers = 4
		each    = 16 // writers*each pages, all in one 64-entry block
		base    = 128
	)
	s := NewMem(nil)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastLen, lastMax := 0, uint64(0)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				pid := uint64(base + (i*7+r)%(writers*each))
				had := s.Contains(pid)
				max, ok := s.MaxPageID()
				n := s.Len()
				if had && (!ok || max < pid) {
					t.Errorf("page %d is stored but MaxPageID = %d, %v", pid, max, ok)
				}
				if n < lastLen || (ok && max < lastMax) {
					t.Errorf("Len went %d -> %d, MaxPageID %d -> %d", lastLen, n, lastMax, max)
				}
				if ok {
					lastMax = max
				}
				lastLen = n
				if t.Failed() {
					return
				}
			}
		}(r)
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			c := vclock.New()
			for i := 0; i < each; i++ {
				pid := uint64(base + i*writers + w)
				if err := s.WritePage(c, pid, page(byte(pid))); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	ww.Wait()
	close(done)
	wg.Wait()

	if got := s.Len(); got != writers*each {
		t.Fatalf("Len = %d, want %d", got, writers*each)
	}
	if max, ok := s.MaxPageID(); !ok || max != base+writers*each-1 {
		t.Fatalf("MaxPageID = %d, %v; want %d", max, ok, base+writers*each-1)
	}
	buf := make([]byte, PageSize)
	c := vclock.New()
	for pid := uint64(base); pid < base+writers*each; pid++ {
		if err := s.ReadPage(c, pid, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, page(byte(pid))) {
			t.Fatalf("page %d reads back wrong", pid)
		}
	}
}

// TestMemStoreStrayID: an id past the directory's span was never written.
// Contains says so, and reads, lends and writes fail with an error and
// charge nothing; none of them panics.
func TestMemStoreStrayID(t *testing.T) {
	s := NewMem(nil)
	c := vclock.New()
	const stray = ^uint64(0)
	if s.Contains(stray) {
		t.Fatal("Contains(stray id) = true")
	}
	if err := s.ReadPage(c, stray, make([]byte, PageSize)); err == nil {
		t.Fatal("ReadPage of a stray id succeeded")
	}
	if _, err := s.Lend(c, stray); err == nil {
		t.Fatal("Lend of a stray id succeeded")
	}
	if err := s.WritePage(c, stray, page(1)); err == nil {
		t.Fatal("WritePage of a stray id succeeded")
	}
	if _, ok := s.MaxPageID(); ok || s.Len() != 0 {
		t.Fatal("a stray id left the store non-empty")
	}
	if st := s.Device().Stats(); st.ReadOps != 0 || st.WriteOps != 0 || c.Now() != 0 {
		t.Fatalf("stray ids charged %+v, %d ns", st, c.Now())
	}
}

// TestWriteUnits: WriteUnits charges exactly what WritePage charges, copies
// only the units named (a page the store does not hold yet whole), and an
// injected failure leaves the old image.
func TestWriteUnits(t *testing.T) {
	// buf is page(0x22) except in units 5 and 62..63, which hold 0x33.
	buf := page(0x22)
	const units = 1<<5 | 3<<62
	for _, u := range []int{5, 62, 63} {
		copy(buf[u*UnitSize:(u+1)*UnitSize], page(0x33))
	}
	t.Run("mem", func(t *testing.T) {
		s, twin := NewMem(nil), NewMem(nil)
		c, tc := vclock.New(), vclock.New()
		if err := s.WriteUnits(c, 9, page(0x11), 0); err != nil {
			t.Fatal(err)
		}
		if err := twin.WritePage(tc, 9, page(0x11)); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, PageSize)
		if err := s.ReadPage(c, 9, got); err != nil || !bytes.Equal(got, page(0x11)) {
			t.Fatalf("a first write with no units named did not store the whole page (err %v)", err)
		}
		if err := twin.ReadPage(tc, 9, got); err != nil {
			t.Fatal(err)
		}

		if err := s.WriteUnits(c, 9, buf, units); err != nil {
			t.Fatal(err)
		}
		if err := twin.WritePage(tc, 9, buf); err != nil {
			t.Fatal(err)
		}
		if c.Now() != tc.Now() {
			t.Fatalf("WriteUnits took %d ns, WritePage %d ns", c.Now(), tc.Now())
		}
		if got, want := s.Device().Stats(), twin.Device().Stats(); got != want {
			t.Fatalf("WriteUnits counted %+v, WritePage %+v", got, want)
		}
		want := page(0x11)
		for _, u := range []int{5, 62, 63} {
			copy(want[u*UnitSize:(u+1)*UnitSize], page(0x33))
		}
		if err := s.ReadPage(c, 9, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("WriteUnits stored the wrong image (err %v)", err)
		}

		s.Device().SetFaults(device.NewInjector(device.FaultConfig{WriteErrProb: 1}))
		before := c.Now()
		if err := s.WriteUnits(c, 9, page(0x44), AllUnits); !errors.Is(err, device.ErrTransient) {
			t.Fatalf("WriteUnits under a faulty device = %v; want ErrTransient", err)
		}
		if c.Now() != before {
			t.Fatal("a failed write charged the clock")
		}
		s.Device().SetFaults(nil)
		if err := s.ReadPage(c, 9, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("a failed write changed the image (err %v)", err)
		}
	})
}
