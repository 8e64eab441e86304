package core

import (
	"reflect"
	"regexp"
	"testing"

	"github.com/spitfire-db/spitfire/internal/policy"
)

var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// TestCounterTable bumps every counter to a distinct value through the table
// — spread over the worker blocks, so that each block holds a share of each
// counter — and checks the three things derived from it: the Stats snapshot
// sums the blocks and sees each counter in a field of its own (so a Stats field
// without a row, two rows on one field, or a block left out of the sum fails),
// the obs samples are uniquely and conventionally named, and ResetStats zeroes
// every block but leaves the NVMDegraded latch.
func TestCounterTable(t *testing.T) {
	bm := newBM(t, Config{DRAMBytes: 4 * PageSize, NVMBytes: 4 * nvmFrameSlot, Policy: policy.SpitfireLazy})
	for w := 0; w < statStripes; w++ {
		// Worker w and worker w+statStripes share a block; every row gets
		// (i+1) in each of the statStripes blocks.
		blk := bm.stats.at(w + statStripes)
		for i := 0; i < int(nCounters); i++ {
			blk.c[i].Add(int64(i + 1))
		}
	}
	sum := bm.Stats()
	for i, c := range counters(&sum) {
		if got := bm.stats.at(0).c[i].Load(); got != int64(i+1) {
			t.Fatalf("row %d of block 0 holds %d, want %d: blocks overlap", i, got, i+1)
		}
		if want := int64(statStripes * (i + 1)); *c.snap != want {
			t.Fatalf("row %d sums to %d over %d blocks of %d each, want %d", i, *c.snap, statStripes, i+1, want)
		}
	}

	// The steal fields have no counter (each pool has one free list); they
	// stay, always zero, until bench/ stops reading them.
	noRow := map[string]bool{"DRAMFreeSteals": true, "NVMFreeSteals": true}
	st := reflect.ValueOf(bm.Stats())
	if st.NumField()-len(noRow) != int(nCounters) {
		t.Fatalf("Stats has %d fields with a counter, the counter table %d rows", st.NumField()-len(noRow), nCounters)
	}
	fieldOf := map[int64]string{}
	for i := 0; i < st.NumField(); i++ {
		name, v := st.Type().Field(i).Name, st.Field(i).Int()
		if noRow[name] {
			continue
		}
		if v == 0 {
			t.Errorf("Stats.%s is zero after bumping every counter: no table row feeds it", name)
		}
		if prev, dup := fieldOf[v]; dup {
			t.Errorf("Stats.%s and Stats.%s read the same counter", prev, name)
		}
		fieldOf[v] = name
	}

	samples := bm.ObsCounters()
	if len(samples) != int(nCounters)-1 {
		t.Fatalf("%d obs samples for %d rows, want every row but the NVMDegraded latch", len(samples), nCounters)
	}
	seen := map[string]bool{}
	for _, s := range samples {
		if !snakeCase.MatchString(s.Name) {
			t.Errorf("sample name %q is not snake_case", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("duplicate sample name %q", s.Name)
		}
		seen[s.Name] = true
		if _, ok := fieldOf[s.Value]; !ok || s.Value == bm.Stats().NVMDegraded {
			t.Errorf("sample %s = %d matches no counter", s.Name, s.Value)
		}
	}

	degraded := bm.Stats().NVMDegraded
	bm.ResetStats()
	st = reflect.ValueOf(bm.Stats())
	for i := 0; i < st.NumField(); i++ {
		name, v := st.Type().Field(i).Name, st.Field(i).Int()
		if name == "NVMDegraded" {
			if v != degraded {
				t.Errorf("ResetStats changed the NVMDegraded latch: %d -> %d", degraded, v)
			}
		} else if v != 0 {
			t.Errorf("Stats.%s = %d after ResetStats", name, v)
		}
	}
}
