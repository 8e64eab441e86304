package main

import (
	"strings"
	"testing"

	"github.com/spitfire-db/spitfire/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestFlagParsingSmoke covers the exits that happen before the listener
// opens; tests/blackbox drives everything after it.
func TestFlagParsingSmoke(t *testing.T) {
	out, exit := cmdtest.Run(t, "-no-such-flag")
	if exit == 0 || !strings.Contains(out, "Usage of") {
		t.Errorf("bad flag exited %d, want non-zero with the usage text:\n%s", exit, out)
	}
	out, exit = cmdtest.Run(t, "-policy", "bogus")
	if exit == 0 || !strings.Contains(out, `unknown -policy "bogus" (lazy or eager)`) {
		t.Errorf("unknown -policy exited %d, want non-zero naming the accepted values:\n%s", exit, out)
	}
	out, exit = cmdtest.Run(t, "-h")
	if exit != 0 || !strings.Contains(out, "-policy") {
		t.Errorf("-h exited %d, want 0 with the flag list:\n%s", exit, out)
	}
}
