package hostmem

import (
	"errors"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"

	"github.com/spitfire-db/spitfire/internal/testutil"
)

// TestMapIsZeroAndLazy requires a fresh region to be resident only in the
// pages stored to, and to read zero elsewhere.
func TestMapIsZeroAndLazy(t *testing.T) {
	skipUnderRace(t)
	ps := os.Getpagesize()
	r := Map(64 * ps)
	b := r.Bytes()
	if len(b) != 64*ps {
		t.Fatalf("len = %d, want %d", len(b), 64*ps)
	}
	b[3*ps+7] = 1
	b[40*ps] = 2
	in, err := testutil.Resident(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range in {
		if want := i == 3 || i == 40; res != want {
			t.Errorf("page %d resident = %v, want %v", i, res, want)
		}
	}
	// Checked after mincore: a read fault maps the shared zero page, which
	// mincore reports as resident.
	for i, v := range b {
		if v != 0 && i != 3*ps+7 && i != 40*ps {
			t.Fatalf("byte %d = %d, want 0", i, v)
		}
	}
	runtime.KeepAlive(r)
}

// TestMapZeroBytes: an empty region maps nothing.
func TestMapZeroBytes(t *testing.T) {
	if b := Map(0).Bytes(); len(b) != 0 {
		t.Fatalf("len = %d, want 0", len(b))
	}
}

// TestDroppedRegionIsUnmapped requires a region whose owner is gone to be
// unmapped after a collection: mincore over its old range fails with ENOMEM.
func TestDroppedRegionIsUnmapped(t *testing.T) {
	skipUnderRace(t)
	ps := os.Getpagesize()
	type owner struct {
		mem  *Region
		data []byte
		self *owner // a cycle through the owner must not pin the region
	}
	o := &owner{mem: Map(16 * ps)}
	o.data = o.mem.Bytes()
	o.self = o
	o.data[0] = 1
	b := o.data
	if _, err := testutil.Resident(b); err != nil {
		t.Fatalf("live region: %v", err)
	}
	o = nil
	// The finalizer runs on its own goroutine after the collection that
	// finds the region unreachable.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		_, err := testutil.Resident(b)
		if errors.Is(err, syscall.ENOMEM) {
			return
		}
		if err != nil {
			t.Fatalf("mincore: %v, want ENOMEM", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("dropped region still mapped after 10 s of collections")
		}
		time.Sleep(time.Millisecond)
	}
}

// skipUnderRace skips a test of the mapping: under -race, Map takes its
// bytes from the Go heap.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if testutil.RaceEnabled() {
		t.Skip("under -race the region is a heap slice, not a mapping")
	}
}
