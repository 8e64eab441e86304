// Package metrics provides the low-overhead counters the buffer manager and
// the experiment harness use to report the statistics the paper measures:
// per-tier hits, migrations along each data-flow path of Figure 3, eviction
// and write-back counts, and NVM write volume.
package metrics

import "sync/atomic"

// Counter is an atomic monotonically increasing counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Store sets the value (used by core.ResetStats).
func (c *Counter) Store(n int64) { c.v.Store(n) }
