package main

import (
	"strings"
	"testing"

	"github.com/spitfire-db/spitfire/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestFixtureModuleSmoke drives the command over internal/vet's fixture
// module: a clean package exits 0 silently, the latch fixtures exit 1 with
// file:line: [check-id] findings, an unknown check exits 2.
func TestFixtureModuleSmoke(t *testing.T) {
	const mod = "../../internal/vet/testdata/mod"
	if out, exit := cmdtest.Run(t, "-dir", mod, "./internal/device"); exit != 0 || out != "" {
		t.Fatalf("clean package exited %d:\n%s", exit, out)
	}
	out, exit := cmdtest.Run(t, "-dir", mod, "-checks", "latchorder", "./internal/latch")
	if exit != 1 || !strings.Contains(out, "latch.go:") || !strings.Contains(out, "[latchorder]") {
		t.Fatalf("latch fixtures exited %d:\n%s", exit, out)
	}
	if _, exit := cmdtest.Run(t, "-checks", "no-such-check"); exit != 2 {
		t.Fatalf("unknown check exited %d, want 2", exit)
	}
}
