package main

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/spitfire-db/spitfire/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

func TestFlagParsingSmoke(t *testing.T) {
	out, exit := cmdtest.Run(t, "gen", "-ops", "40", "-keys", "10", "-theta", "0.5", "-writes", "30")
	if n := strings.Count(out, "\n"); exit != 0 || n != 41 || !strings.HasPrefix(out, "# synthetic trace: 40 ops over 10 keys") {
		t.Fatalf("gen -ops 40 exited %d with %d lines (want a header and 40 ops):\n%s", exit, n, out)
	}
	if _, exit := cmdtest.Run(t); exit != 2 {
		t.Fatalf("no subcommand exited %d, want 2 (usage)", exit)
	}
	if _, exit := cmdtest.Run(t, "gen", "-no-such-flag"); exit != 2 {
		t.Fatalf("bad flag exited %d, want 2", exit)
	}
}

// compare prints one row per budget split, best throughput first.
func TestCompareRanksBestFirst(t *testing.T) {
	trace, exit := cmdtest.Run(t, "gen", "-ops", "3000", "-keys", "2000", "-theta", "0.5", "-writes", "30")
	if exit != 0 {
		t.Fatalf("gen exited %d:\n%s", exit, trace)
	}
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	out, exit := cmdtest.Run(t, "compare", "-budget", "0.5", "-workers", "2", path)
	if exit != 0 {
		t.Fatalf("compare exited %d:\n%s", exit, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("want a header and 5 hierarchies:\n%s", out)
	}
	prev := math.Inf(1)
	for _, line := range lines[1:] {
		f := strings.Fields(line)
		kops, err := strconv.ParseFloat(f[len(f)-2], 64)
		if err != nil || kops > prev {
			t.Fatalf("rows not best-first at %q:\n%s", line, out)
		}
		prev = kops
	}
}
