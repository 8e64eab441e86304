// Package metrics is a vet fixture mirroring internal/metrics' histogram.
package metrics

type Histogram struct{ sum float64 }

func (h *Histogram) Observe(v float64) { h.sum += v }
