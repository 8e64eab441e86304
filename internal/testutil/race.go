// Package testutil holds helpers shared by the tests of several packages.
package testutil

import "runtime/debug"

// RaceEnabled reports whether the running binary was built with -race.
// Allocation-budget tests skip under it: the race detector's instrumentation
// allocates on its own account.
func RaceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
