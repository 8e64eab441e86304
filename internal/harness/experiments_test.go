package harness

import (
	"strconv"
	"strings"
	"testing"

	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/policy"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig5", "table2", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"extra-wear", "extra-admit"}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(want))
	}
	for i, name := range want {
		if exps[i].Name != name {
			t.Fatalf("experiment %d is %q, want %q", i, exps[i].Name, name)
		}
		if _, ok := Lookup(name); !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Fatal("Lookup invented an experiment")
	}
}

// runOne runs a single-table experiment through the registry.
func runOne(t *testing.T, name string, o Opts) *Table {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("no experiment %q", name)
	}
	tables, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("%s rendered %d tables, want 1", name, len(tables))
	}
	return tables[0]
}

func TestTable1Static(t *testing.T) {
	tb := runOne(t, "table1", Opts{})
	if len(tb.Rows) != 3 {
		t.Fatalf("table1 has %d rows", len(tb.Rows))
	}
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"DRAM", "NVM", "SSD", "256 B", "$4.5/GB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table1 missing %q:\n%s", want, out)
		}
	}
}

// TestInclusivityMonotoneInD verifies the Table 2 mechanism at small
// scale: duplication across buffers grows with the migration probability.
func TestInclusivityMonotoneInD(t *testing.T) {
	inc := func(d float64) float64 {
		p := point{dram: 2, nvm: 8, pol: policy.Policy{Dr: d, Dw: d, Nr: 1, Nw: 1}}
		res, err := Opts{Seed: 5}.measure(p.on(YCSBRO, 16).drive(4, 2000, 3000))
		if err != nil {
			t.Fatal(err)
		}
		return res.Inclusivity
	}
	i0, i1 := inc(0), inc(1)
	if i0 != 0 {
		t.Fatalf("D=0 inclusivity = %v, want 0 (nothing ever migrates up)", i0)
	}
	if i1 <= 0.05 {
		t.Fatalf("D=1 inclusivity = %v, want substantial duplication", i1)
	}
}

// TestNVMWritesDropWithLazyN verifies the Figure 8 mechanism: a lazy N
// policy writes far less to NVM than the eager one.
func TestNVMWritesDropWithLazyN(t *testing.T) {
	vol := func(n float64) int64 {
		e, err := NewEnv(EnvConfig{
			Spec:     engine.Spec{DRAMBytes: 2 * MB, NVMBytes: 8 * MB, Policy: policy.Policy{Dr: 1, Dw: 1, Nr: n, Nw: n}},
			Workload: YCSBRO,
			DBBytes:  16 * MB,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(4, 3000, 9) // cold: includes population writes
		if err != nil {
			t.Fatal(err)
		}
		return res.NVMBytesWritten
	}
	lazy, eager := vol(0.01), vol(1)
	if lazy*2 >= eager {
		t.Fatalf("lazy N wrote %d bytes vs eager %d; expected far fewer", lazy, eager)
	}
}

// TestAdaptiveImproves verifies the Figure 10 mechanism: annealing from
// the eager policy finds a better one.
func TestAdaptiveImproves(t *testing.T) {
	tb := runOne(t, "fig10", Opts{Quick: true})
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "best" {
		t.Fatalf("missing summary row: %v", last)
	}
	// The "+X% over eager" cells must not be negative for YCSB-RO.
	if strings.HasPrefix(last[2], "(+-") {
		t.Fatalf("adaptation regressed on YCSB-RO: %v", last)
	}
}

// TestFig11Shape verifies that 64 B loading units move more NVM media
// bytes than 256 B units (the I/O amplification of §6.5).
func TestFig11Shape(t *testing.T) {
	tb := runOne(t, "fig11", Opts{Quick: true})
	if len(tb.Rows) != 4 {
		t.Fatalf("fig11 rows = %d", len(tb.Rows))
	}
	var r64, r256 float64
	for _, row := range tb.Rows {
		switch row[0] {
		case "64":
			r64 = parseF(t, row[2])
		case "256":
			r256 = parseF(t, row[2])
		}
	}
	if r64 <= r256 {
		t.Fatalf("64 B units read %.2f MB <= 256 B units %.2f MB; amplification missing", r64, r256)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}
