// Package obsuse is a vet fixture: consumers of fix/internal/obs with and
// without the nil-check fast path.
package obsuse

import (
	"fix/internal/metrics"
	"fix/internal/obs"
)

type manager struct {
	obs  *obs.Obs
	hist *metrics.Histogram
}

// Unguarded emits without a nil check.
func (m *manager) Unguarded() {
	m.obs.Emit("event") // want obsguard
}

// UnguardedHist observes without any guard in scope.
func (m *manager) UnguardedHist(v float64) {
	m.hist.Observe(v) // want obsguard
}

// Guarded is the canonical early-return fast path; the histogram call is
// covered by the convention that cached handles are non-nil iff obs is.
func (m *manager) Guarded(v float64) {
	if m.obs == nil {
		return
	}
	m.obs.Emit("event")
	m.hist.Observe(v)
}

// GuardedBranch guards inside if bodies.
func (m *manager) GuardedBranch(v float64) {
	if m.obs != nil {
		m.obs.Emit("event")
	}
	if m.hist != nil {
		m.hist.Observe(v)
	}
}

// Constructed locals from the obs constructors are provably non-nil.
func Constructed() {
	o := obs.New()
	o.Emit("boot")
	h := o.Hist("lat")
	h.Observe(2)
}
