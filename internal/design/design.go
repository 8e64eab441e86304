// Package design implements the storage-system design problem of §5.3 and
// §6.6 of the paper: given a cost budget and a target workload, find the
// multi-tier hierarchy (DRAM, NVM, SSD capacities) with the best
// performance/price number.
//
// Prices come from Table 1 ($/GB: DRAM 10, NVM 4.5, SSD 2.8); the paper's
// Figure 14a cost matrix is reproduced exactly by Cost. The grid search
// itself simply evaluates a caller-supplied throughput function over the
// candidate grid — the harness plugs in actual Spitfire runs.
package design

import (
	"fmt"
	"sort"

	"github.com/spitfire-db/spitfire/internal/device"
)

// Hierarchy is a candidate storage system. Sizes are in "paper GB", which
// the scaled reproduction maps to MB.
type Hierarchy struct {
	DRAMGB, NVMGB, SSDGB float64
}

// String renders the hierarchy compactly.
func (h Hierarchy) String() string {
	return fmt.Sprintf("DRAM=%g NVM=%g SSD=%g", h.DRAMGB, h.NVMGB, h.SSDGB)
}

// Cost returns the hierarchy's total device cost in dollars, using
// Table 1's per-GB prices.
func Cost(h Hierarchy) float64 {
	return h.DRAMGB*device.DRAMParams.PricePerGB +
		h.NVMGB*device.NVMParams.PricePerGB +
		h.SSDGB*device.SSDParams.PricePerGB
}

// GridAxes returns the DRAM and NVM sizes (GB) of Figure 14's grid: every
// DRAM size × every NVM size.
func GridAxes() (dramGB, nvmGB []float64) {
	return []float64{0, 4, 8, 16, 32}, []float64{0, 40, 80, 160}
}

// GridCell is the hierarchy at one point of Figure 14's grid, over its
// 200 GB SSD.
func GridCell(dramGB, nvmGB float64) Hierarchy {
	return Hierarchy{DRAMGB: dramGB, NVMGB: nvmGB, SSDGB: 200}
}

// Grid is the candidate grid of Figure 14 in row-major (DRAM, then NVM)
// order, excluding the empty (0 DRAM, 0 NVM) corner which has no buffer at
// all.
func Grid() []Hierarchy {
	var out []Hierarchy
	drams, nvms := GridAxes()
	for _, d := range drams {
		for _, n := range nvms {
			if d == 0 && n == 0 {
				continue
			}
			out = append(out, GridCell(d, n))
		}
	}
	return out
}

// Result pairs a hierarchy with its measured throughput.
type Result struct {
	Hierarchy  Hierarchy
	Throughput float64 // operations per second
	Cost       float64
	PerfPrice  float64 // operations per second per dollar
}

// Search evaluates throughput for every candidate and ranks by
// performance/price (§6.6). Candidates whose evaluation fails (throughput
// <= 0) are kept with zero perf/price so heat-map outputs stay rectangular.
func Search(candidates []Hierarchy, throughput func(Hierarchy) float64) []Result {
	out := make([]Result, 0, len(candidates))
	for _, h := range candidates {
		t := throughput(h)
		c := Cost(h)
		r := Result{Hierarchy: h, Throughput: t, Cost: c}
		if t > 0 && c > 0 {
			r.PerfPrice = t / c
		}
		out = append(out, r)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].PerfPrice > out[j].PerfPrice })
	return out
}

// Best returns the highest perf/price result within an optional budget
// (budget <= 0 means unconstrained).
func Best(results []Result, budget float64) (Result, bool) {
	for _, r := range results {
		if budget > 0 && r.Cost > budget {
			continue
		}
		if r.PerfPrice > 0 {
			return r, true
		}
	}
	return Result{}, false
}
