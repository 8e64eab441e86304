package main

import (
	"strings"
	"testing"

	"github.com/spitfire-db/spitfire/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

func TestListSmoke(t *testing.T) {
	out, exit := cmdtest.Run(t, "list")
	if exit != 0 || !strings.Contains(out, "fig6") || !strings.Contains(out, "extra-cleaner") {
		t.Fatalf("list exited %d:\n%s", exit, out)
	}
	if out, exit := cmdtest.Run(t, "-quick", "no-such-experiment"); exit != 2 || !strings.Contains(out, "unknown experiment") {
		t.Fatalf("unknown experiment exited %d:\n%s", exit, out)
	}
}
