package ssd

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"unsafe"

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

func TestFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ssd.db")
	s, err := NewFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	testStore(t, s)
}

func TestFileStoreSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ssd.db")
	c := vclock.New()
	s, err := NewFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := page(0x5A)
	if err := s.WritePage(c, 3, want); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := NewFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	buf := make([]byte, PageSize)
	if err := s2.ReadPage(c, 3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("page lost across reopen")
	}
}

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
// array, which a later WritePage rewrites in place.
func TestMemStoreLend(t *testing.T) {
	s := NewMem(nil)
	c := vclock.New()
	if _, ok, err := s.Lend(c, 5); err == nil || ok {
		t.Fatalf("Lend of a missing page = ok %v, err %v; want an error", ok, err)
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
	lent, ok, err := s.Lend(c, 5)
	if err != nil || !ok {
		t.Fatalf("Lend = ok %v, err %v", ok, err)
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
	again, _, err := s.Lend(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &lent[0] || lent[0] != 0x22 {
		t.Fatal("a page write did not rewrite the lent backing array in place")
	}

	s.Device().SetFaults(device.NewInjector(device.FaultConfig{ReadErrProb: 1}))
	if _, ok, err := s.Lend(c, 5); ok || !errors.Is(err, device.ErrTransient) {
		t.Fatalf("Lend under a faulty device = ok %v, err %v; want ErrTransient", ok, err)
	}
}

// TestFileStoreDoesNotLend: a file's pages are not in memory, so Lend
// declines without charging, and the caller reads with ReadPage.
func TestFileStoreDoesNotLend(t *testing.T) {
	s, err := NewFile(filepath.Join(t.TempDir(), "ssd.img"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := vclock.New()
	if err := s.WritePage(c, 0, page(1)); err != nil {
		t.Fatal(err)
	}
	before := c.Now()
	if p, ok, err := s.Lend(c, 0); p != nil || ok || err != nil {
		t.Fatalf("FileStore.Lend = %v, %v, %v; want nil, false, nil", p != nil, ok, err)
	}
	if c.Now() != before || s.Device().Stats().ReadOps != 0 {
		t.Fatal("a declined Lend charged the device")
	}
}

// TestShardLayout pins the MemStore's padding: every page I/O writes its
// shard's mutex, so two mutexes, and the device pointer every I/O reads
// and shard 0's mutex, are at least 56 bytes apart (off each other's cache
// lines at any 8-byte alignment).
func TestShardLayout(t *testing.T) {
	var sh shard
	if gap := unsafe.Sizeof(sh) - unsafe.Sizeof(sh.mu); unsafe.Offsetof(sh.mu) != 0 || gap < 56 {
		t.Errorf("a shard's mutex is followed by %d bytes before the next shard's: want >= 56", gap)
	}
	var s MemStore
	if lead := unsafe.Offsetof(s.shards) - (unsafe.Offsetof(s.dev) + unsafe.Sizeof(s.dev)); lead < 56 {
		t.Errorf("shard 0 starts %d bytes after the device pointer: want >= 56", lead)
	}
}
