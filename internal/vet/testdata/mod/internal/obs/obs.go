// Package obs is a vet fixture mirroring the observability layer's shape:
// a facade type that hands out histogram handles, both nil when disabled.
package obs

import "fix/internal/metrics"

type Obs struct{ n int }

func New() *Obs { return &Obs{} }

func (o *Obs) Emit(ev string) { _ = ev; o.n++ }

func (o *Obs) Hist(name string) *metrics.Histogram { _ = name; return &metrics.Histogram{} }
