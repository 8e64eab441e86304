package main

import (
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
