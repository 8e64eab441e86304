package core

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/ssd"
	"github.com/spitfire-db/spitfire/internal/testutil"
)

// TestArenasResidentOnlyWhereUsed pins how much of the DRAM and NVM arenas
// the host backs: after k pages are fetched and written, exactly the pages
// of the frames that hold them, and of the NVM frames only the header slot
// (a lent NVM frame holds no payload byte). The manager is built right
// after an identical one is closed and dropped, because that is when arenas
// taken from make reuse freed spans, which the Go runtime zeroes whole, so
// that every page is resident before a frame is used.
func TestArenasResidentOnlyWhereUsed(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("under -race the arenas are heap slices, not mappings")
	}
	if hugePagesAlways() {
		t.Skip("transparent huge pages are always on: the host backs arenas many pages at a time")
	}
	const k = 40
	cfg := Config{DRAMBytes: 16 << 20, NVMBytes: 64 << 20, Policy: policy.SpitfireEager}
	newBM(t, cfg).Close()
	runtime.GC()

	bm := newBM(t, cfg)
	defer bm.Close()
	seed(t, bm, k)
	ctx := NewCtx(1)
	page := make([]byte, PageSize)
	for pid := uint64(0); pid < k; pid++ {
		h, err := bm.FetchPage(ctx, pid, ReadIntent) // a miss, into NVM
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
		if h, err = bm.FetchPage(ctx, pid, WriteIntent); err != nil { // up to DRAM
			t.Fatal(err)
		}
		marker(page, pid, 1)
		if err := h.WriteAt(ctx, 0, page); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}

	ps := int64(os.Getpagesize())
	// mark sets the host pages of bytes [off, off+n) in want.
	mark := func(want map[int64]bool, off, n int64) {
		for pg := off / ps; pg <= (off+n-1)/ps; pg++ {
			want[pg] = true
		}
	}
	// markOwned marks the units of a frame's page that its arena holds.
	markOwned := func(want map[int64]bool, m *frameMeta, base int64) {
		units := ssd.AllUnits
		if m.lent.Load() != nil {
			units = m.diff.Load()
		}
		for u := int64(0); u < 64; u++ {
			if units&(1<<u) != 0 {
				mark(want, base+u*ssd.UnitSize, ssd.UnitSize)
			}
		}
	}
	wantD, wantN := map[int64]bool{}, map[int64]bool{}
	for f := range bm.dram.meta {
		if m := &bm.dram.meta[f]; m.pid.Load() != InvalidPageID {
			markOwned(wantD, m, bm.dram.frameOffset(int32(f)))
		}
	}
	for f := range bm.nvm.meta {
		if m := &bm.nvm.meta[f]; m.pid.Load() != InvalidPageID {
			mark(wantN, bm.nvm.headerOffset(int32(f)), nvmFrameHeaderSize)
			markOwned(wantN, m, bm.nvm.payloadOffset(int32(f)))
		}
	}
	// Eager: each page missed into a lent NVM frame and moved up to DRAM for
	// the write, so k DRAM frames hold whole pages and k NVM frames a header.
	if got, want := len(wantD), k*int(PageSize/ps); got != want {
		t.Fatalf("used DRAM frames span %d host pages, want %d", got, want)
	}
	if got := len(wantN); got != k {
		t.Fatalf("used NVM frames span %d host pages, want %d", got, k)
	}

	for _, a := range []struct {
		name  string
		arena []byte
		want  map[int64]bool
	}{
		{"DRAM", bm.dram.arena, wantD},
		{"NVM", bm.nvm.pm.Bytes(0, int(bm.nvm.pm.Size())), wantN},
	} {
		in, err := testutil.Resident(a.arena)
		if err != nil {
			t.Fatal(err)
		}
		resident, stray := 0, -1
		for pg, res := range in {
			if !res {
				continue
			}
			resident++
			if stray < 0 && !a.want[int64(pg)] {
				stray = pg
			}
		}
		if resident != len(a.want) || stray >= 0 {
			t.Errorf("%s arena: %d of %d host pages resident (first outside a used frame: %d), want the used frames' %d",
				a.name, resident, len(in), stray, len(a.want))
		}
	}
}

// hugePagesAlways reports whether the host may back an anonymous mapping
// with transparent huge pages on its first touch: the top-level setting is
// [always] (which sizes set to [inherit] follow), or some multi-size setting
// (hugepages-<N>kB) is [always] itself.
func hugePagesAlways() bool {
	const dir = "/sys/kernel/mm/transparent_hugepage/"
	files, _ := filepath.Glob(dir + "hugepages-*kB/enabled")
	for _, f := range append([]string{dir + "enabled"}, files...) {
		if b, err := os.ReadFile(f); err == nil && strings.Contains(string(b), "[always]") {
			return true
		}
	}
	return false
}
