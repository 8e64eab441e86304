package harness

import (
	"strings"
	"testing"

	"github.com/spitfire-db/spitfire/internal/policy"
)

func TestWorkloadKindStrings(t *testing.T) {
	want := map[WorkloadKind]string{
		YCSBRO: "YCSB-RO", YCSBBA: "YCSB-BA", YCSBWH: "YCSB-WH", TPCC: "TPC-C",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
	if !strings.Contains(WorkloadKind(9).String(), "9") {
		t.Fatal("unknown workload string unhelpful")
	}
	if YCSBRO.mix().ReadPct != 100 || YCSBWH.mix().ReadPct != 10 {
		t.Fatal("mix mapping wrong")
	}
}

func TestOptsScaling(t *testing.T) {
	full := Opts{}
	quick := Opts{Quick: true}
	if full.sz(100) != 100*MB {
		t.Fatalf("full sz(100) = %d", full.sz(100))
	}
	if quick.sz(100) != 25*MB {
		t.Fatalf("quick sz(100) = %d", quick.sz(100))
	}
	// Tiny sizes are floored, not zeroed; an absent tier (0) stays absent.
	if quick.sz(0.1) < 64*1024 {
		t.Fatalf("quick sz(0.1) = %d", quick.sz(0.1))
	}
	if quick.sz(0) != 0 || full.sz(0) != 0 {
		t.Fatalf("sz(0) = %d / %d, want 0", quick.sz(0), full.sz(0))
	}
	if full.ops(8000) != 8000 || quick.ops(8000) != 1000 {
		t.Fatalf("ops scaling: %d / %d", full.ops(8000), quick.ops(8000))
	}
	if quick.ops(100) != 200 {
		t.Fatalf("quick ops floor: %d", quick.ops(100))
	}
	if full.seed() != 1 || (Opts{Seed: 9}).seed() != 9 {
		t.Fatal("seed defaulting wrong")
	}
}

func TestTableFprintAlignment(t *testing.T) {
	tb := &Table{
		ID: "x", Title: "t",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"wide-cell", "1"}, {"b", "2"}},
	}
	var sb strings.Builder
	tb.Fprint(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	// Header line, separator, two rows + title line.
	if len(lines) != 4+1 {
		t.Fatalf("rendered %d lines: %q", len(lines), lines)
	}
	// All data lines equal width (alignment).
	if len(lines[1]) != len(lines[2]) || len(lines[2]) != len(lines[3]) {
		t.Fatalf("misaligned output:\n%s", sb.String())
	}
}

func TestWarmupOpsSizing(t *testing.T) {
	e, err := NewEnv(EnvConfig{
		DRAMBytes: 2 * MB, NVMBytes: 8 * MB,
		Policy:   policyFor(t),
		Workload: YCSBRO, DBBytes: 4 * MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := e.BM.DRAMFrames() + e.BM.NVMFrames()
	got := e.WarmupOps(4, 0)
	if got*4 < 8*frames-4 {
		t.Fatalf("warmup %d x 4 too small for %d frames", got, frames)
	}
	// The requested floor wins when larger.
	if e.WarmupOps(4, 10_000) < 10_000 {
		t.Fatal("requested floor ignored")
	}
	// The cap binds for huge requests.
	if e.WarmupOps(1, 5_000_000) > 1_000_000 {
		t.Fatal("warmup cap ignored")
	}
	// A lazy Nr scales the warm-up so the NVM buffer can actually fill.
	lazyEnv, err := NewEnv(EnvConfig{
		DRAMBytes: 2 * MB, NVMBytes: 8 * MB,
		Policy:   policy.Policy{Dr: 1, Dw: 1, Nr: 0.05, Nw: 0.05},
		Workload: YCSBRO, DBBytes: 4 * MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lazyEnv.WarmupOps(4, 0) <= e.WarmupOps(4, 0) {
		t.Fatal("lazy Nr did not scale the warm-up")
	}
}

func policyFor(t *testing.T) policy.Policy {
	t.Helper()
	return policy.SpitfireEager
}

func TestTableWriteCSV(t *testing.T) {
	tb := &Table{
		ID:     "x",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "two, with comma"}, {"3", "4"}},
	}
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "a,b\n1,\"two, with comma\"\n3,4\n"
	if got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}
