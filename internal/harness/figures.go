package harness

import (
	"fmt"

	"github.com/spitfire-db/spitfire/internal/design"
	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/policy"
)

// The paper's hierarchies, by section, in the paper's GB. Figures, claims and
// extras all build their points from these, so a claim measures the
// configuration its figure prints.

// §6.2: two equi-cost two-tier hierarchies. App direct is a 340 GB NVM
// buffer; memory mode is a 140 GB buffer pool whose "DRAM" is NVM behind a
// 96 GB hardware DRAM cache.
var (
	appDirect  = point{nvm: 340, pol: policy.SpitfireEager}
	memoryMode = point{dram: 140, memMode: 96, pol: policy.Policy{Dr: 1, Dw: 1}}
)

// sweepProbs are the migration probabilities swept in §6.3.
var sweepProbs = []float64{0, 0.01, 0.1, 1}

var sweepWorkloads = []WorkloadKind{YCSBRO, YCSBBA, YCSBWH, TPCC}

// sweep is the §6.3 configuration — 12.5 GB DRAM + 50 GB NVM over a 100 GB
// database — at each of probs, applied to D (sweepD) or to N in lockstep
// with the other pair eager. A single worker gets four times the operations.
func sweep(o Opts, wl WorkloadKind, sweepD bool, workers int, probs []float64) []point {
	warm, ops := o.ops(2500), o.ops(5000)
	if workers == 1 {
		warm, ops = warm*4, ops*4
	}
	var ps []point
	for _, prob := range probs {
		pol := policy.Policy{Dr: 1, Dw: 1, Nr: prob, Nw: prob}
		if sweepD {
			pol = policy.Policy{Dr: prob, Dw: prob, Nr: 1, Nw: 1}
		}
		ps = append(ps, point{dram: 12.5, nvm: 50, pol: pol}.on(wl, 100).drive(workers, warm, ops))
	}
	return ps
}

// adaptive is the §6.4 hierarchy — 2.5 GB DRAM + 10 GB NVM over 20 GB,
// starting eager — tuned for `epochs` epochs of ops operations per worker.
func adaptive(wl WorkloadKind, workers, warm, ops int, tune tuning) point {
	p := point{dram: 2.5, nvm: 10, pol: policy.SpitfireEager}.on(wl, 20).drive(workers, warm, ops)
	p.tune = &tune
	return p
}

// hymemRig is the §6.5 hierarchy — 8 GB DRAM + 32 GB NVM over 20 GB, eight
// workers — with HyMem's optimizations switched on one at a time (256 B
// loading units).
func hymemRig(o Opts, wl WorkloadKind, pol policy.Policy, fine, mini bool, warm, ops int) point {
	p := point{dram: 8, nvm: 32, pol: pol, fine: fine, unit: 256, mini: mini}
	return p.on(wl, 20).drive(8, o.ops(warm), o.ops(ops))
}

// gridPoint is one candidate of the §6.6 design grid (design.Grid): its
// DRAM and NVM over a 100 GB database with skew 0.5, Spitfire-Lazy on
// whatever tiers exist. A 0 is an absent tier, so the grid's edges are the
// two-tier candidates.
func gridPoint(wl WorkloadKind, h design.Hierarchy) point {
	return point{dram: h.DRAMGB, nvm: h.NVMGB, theta: 0.5, pol: policy.SpitfireLazy}.on(wl, 100)
}

// table3 names the three migration policies of the paper's Table 3.
var table3 = []struct {
	name string
	pol  policy.Policy
}{{"Hymem", policy.Hymem}, {"Spf-Eager", policy.SpitfireEager}, {"Spf-Lazy", policy.SpitfireLazy}}

// §6.7's five equally priced configurations: 20 + 60 GB three-tier buffers
// (with HyMem's optimizations) under each policy of Table 3, a 46 GB
// DRAM-SSD hierarchy and a 104 GB NVM-SSD hierarchy.
var (
	dramSSD = point{dram: 46, pol: policy.Policy{Dr: 1, Dw: 1}}
	nvmSSD  = point{nvm: 104, pol: policy.SpitfireEager}
)

type namedPoint struct {
	name string
	point
}

func equiCost() []namedPoint {
	var cs []namedPoint
	for _, t := range table3 {
		cs = append(cs, namedPoint{t.name, point{dram: 20, nvm: 60, pol: t.pol, fine: true, unit: 256, mini: true}})
	}
	return append(cs, namedPoint{"DRAM-SSD", dramSSD}, namedPoint{"NVM-SSD", nvmSSD})
}

// table1 reports the device characteristics the simulator is calibrated to.
func table1(Opts) []spec {
	params := func(p device.Params) []string {
		return []string{
			p.Kind.String(),
			fmt.Sprintf("%d ns", p.ReadLatency),
			fmt.Sprintf("%d ns", p.WriteLatency),
			fmt.Sprintf("%.1f GB/s", p.ReadBandwidth),
			fmt.Sprintf("%.1f GB/s", p.WriteBandwidth),
			fmt.Sprintf("%d B", p.Granularity),
			fmt.Sprintf("$%.1f/GB", p.PricePerGB),
		}
	}
	return one("table1", "Device characteristics (simulator calibration)",
		[]string{"device", "read lat", "write lat", "read bw", "write bw", "granularity", "price"},
		fixed(params(device.DRAMParams), params(device.NVMParams), params(device.SSDParams)))
}

// fig5 compares the two §6.2 hierarchies while the database grows from
// cacheable to uncacheable.
func fig5(o Opts) []spec {
	sizes, workers := []float64{5, 20, 40, 80, 140, 200, 260, 305}, 16
	if o.Quick {
		sizes, workers = []float64{5, 40, 140, 260}, 4
	}
	var gs []group
	for _, wl := range []WorkloadKind{YCSBRO, YCSBBA, TPCC} {
		// The two systems are measured side by side at each size, so the
		// group holds their points interleaved.
		var ps []point
		for _, db := range sizes {
			for _, h := range []point{appDirect, memoryMode} {
				ps = append(ps, h.on(wl, db).drive(workers, o.ops(1200), o.ops(2500)))
			}
		}
		gs = append(gs, group{ps, func(rs []result) [][]string {
			nvm, mem := []string{wl.String(), "NVM-SSD"}, []string{wl.String(), "DRAM-SSD(mem)"}
			for i := 0; i < len(rs); i += 2 {
				nvm, mem = append(nvm, throughput(rs[i])), append(mem, throughput(rs[i+1]))
			}
			return [][]string{nvm, mem}
		}})
	}
	return one("fig5", "NVM-SSD (app direct) vs DRAM-SSD (memory mode), throughput (kops/s) by DB size (paper-GB)",
		headerOf([]string{"workload", "system"}, sizes), gs)
}

// table2 reports the inclusivity ratio of the DRAM and NVM buffers across
// lockstep D and N sweeps (§3.3, Table 2 of the paper).
func table2(o Opts) []spec {
	inclusivity := func(r result) string { return fmt.Sprintf("%.3f", r.Inclusivity) }
	var gs []group
	for _, sweepD := range []bool{true, false} {
		name := "bypass DRAM (D)"
		if !sweepD {
			name = "bypass NVM (N)"
		}
		for _, wl := range sweepWorkloads {
			gs = append(gs, row(inclusivity, sweep(o, wl, sweepD, 8, sweepProbs), name, wl.String()))
		}
	}
	return one("table2", "Inclusivity ratio of DRAM & NVM buffers",
		headerOf([]string{"sweep", "workload"}, sweepProbs), gs)
}

// figSweep is Figures 6 and 7: throughput across a lockstep sweep of D with
// eager NVM, or of N with eager DRAM, for 1 and 16 workers.
func figSweep(id, title string, sweepD bool) func(Opts) []spec {
	return func(o Opts) []spec {
		var gs []group
		for _, workers := range []int{1, 16} {
			for _, wl := range sweepWorkloads {
				gs = append(gs, row(throughput, sweep(o, wl, sweepD, workers, sweepProbs), fmt.Sprint(workers), wl.String()))
			}
		}
		return one(id, title, headerOf([]string{"workers", "workload"}, sweepProbs), gs)
	}
}

// fig8 measures the NVM write volume across the N sweep (§6.3, NVM device
// lifetime).
func fig8(o Opts) []spec {
	var gs []group
	for _, wl := range []WorkloadKind{YCSBRO, YCSBBA, YCSBWH} {
		gs = append(gs, row(nvmWritten, sweep(o, wl, false, 8, sweepProbs), wl.String()))
	}
	return one("fig8", "NVM write volume (paper-GB, i.e. simulated MB) vs N (D=1)",
		headerOf([]string{"workload"}, sweepProbs), gs)
}

// fig9 varies the DRAM:NVM capacity ratio (1:8, 1:4, 1:2) on YCSB-RO and
// sweeps D, showing that the optimal policy depends on the hierarchy
// (§6.3, "Impact of Storage Hierarchy").
func fig9(o Opts) []spec {
	var gs []group
	for _, c := range []struct {
		ratio string
		dram  float64
	}{{"1:8", 1.25}, {"1:4", 2.5}, {"1:2", 5}} {
		var ps []point
		for _, d := range sweepProbs {
			pol := policy.Policy{Dr: d, Dw: d, Nr: 1, Nw: 1}
			ps = append(ps, point{dram: c.dram, nvm: 10, pol: pol}.on(YCSBRO, 20).drive(8, o.ops(3000), o.ops(6000)))
		}
		gs = append(gs, row(throughput, ps, c.ratio, fmt.Sprintf("%g", c.dram)))
	}
	return one("fig9", "YCSB-RO throughput (kops/s) vs D across DRAM:NVM ratios (10 GB NVM)",
		headerOf([]string{"ratio", "DRAM"}, sweepProbs), gs)
}

func policyCell(p policy.Policy) string { return fmt.Sprintf("D=%g N=%g", p.Dr, p.Nr) }

// firstAndBest returns the throughput of the first (eager) epoch and of the
// best one.
func firstAndBest(epochs []result) (first, best float64) {
	for _, ep := range epochs {
		best = max(best, ep.Throughput)
	}
	return epochs[0].Throughput, best
}

// fig10 runs the adaptive data-migration experiment (§6.4): starting from
// the eager policy, the simulated-annealing tuner adjusts ⟨D, N⟩ every
// epoch using the measured throughput, and should converge near the lazy
// optimum without manual tuning.
func fig10(o Opts) []spec {
	epochs := 100
	if o.Quick {
		epochs = 30
	}
	var ps []point
	for _, wl := range []WorkloadKind{YCSBRO, YCSBBA} {
		ps = append(ps, adaptive(wl, 8, o.ops(2000), o.ops(1200), tuning{epochs: epochs, stride: 13}))
	}
	return one("fig10", "Adaptive data migration: throughput (kops/s) per tuning epoch",
		[]string{"epoch", "YCSB-RO", "YCSB-RO policy", "YCSB-BA", "YCSB-BA policy"},
		[]group{{ps, func(rs []result) [][]string {
			ro, ba := rs[0].epochs, rs[1].epochs
			var rows [][]string
			for ep := 0; ep < epochs; ep += max(epochs/20, 1) {
				rows = append(rows, []string{
					fmt.Sprint(ep),
					throughput(ro[ep]), policyCell(ro[ep].pol),
					throughput(ba[ep]), policyCell(ba[ep].pol),
				})
			}
			// Summary row: first vs best epoch.
			summary := []string{"best"}
			for _, series := range [][]result{ro, ba} {
				first, best := firstAndBest(series)
				summary = append(summary, kops(best), fmt.Sprintf("(+%.0f%% over eager)", 100*(best/first-1)))
			}
			return append(rows, summary)
		}}})
}

// loadingUnitPoint is HyMem with fine-grained loading in `unit`-byte units on
// YCSB-RO (Fig. 11 and claim C8).
func loadingUnitPoint(o Opts, unit, warm, ops int) point {
	p := hymemRig(o, YCSBRO, policy.Hymem, true, false, warm, ops)
	p.unit = unit
	return p
}

// fig11 sweeps the loading-unit size for HyMem's cache-line-grained loading
// on Optane (§6.5): 64 B units suffer I/O amplification against the 256 B
// media block, so throughput peaks at 256 B.
func fig11(o Opts) []spec {
	var gs []group
	for _, unit := range []int{64, 128, 256, 512} {
		gs = append(gs, single(loadingUnitPoint(o, unit, 3000, 6000), func(r result) []string {
			return []string{fmt.Sprint(unit), throughput(r), mbs(r.NVMBytesRead)}
		}))
	}
	return one("fig11", "HyMem throughput (kops/s) and NVM media reads vs loading unit (YCSB-RO)",
		[]string{"unit (B)", "throughput", "NVM read MB"}, gs)
}

// fig12 is the ablation study of §6.5: HyMem's two auxiliary optimizations
// (fine-grained loading, then mini pages) are added incrementally under the
// three migration policies of Table 3, on YCSB-RO and TPC-C.
func fig12(o Opts) []spec {
	var gs []group
	for _, wl := range []WorkloadKind{YCSBRO, TPCC} {
		for _, t := range table3 {
			gs = append(gs, row(throughput, []point{
				hymemRig(o, wl, t.pol, false, false, 2500, 5000),
				hymemRig(o, wl, t.pol, true, false, 2500, 5000),
				hymemRig(o, wl, t.pol, true, true, 2500, 5000),
			}, wl.String(), t.name))
		}
	}
	return one("fig12", "Ablation (kops/s): +fine-grained loading, +mini pages across migration policies",
		[]string{"workload", "policy", "none", "+fine-grained", "+mini page"}, gs)
}

// fig13 compares the NVM write volume of HyMem's queue-gated policy against
// Spitfire-Lazy (§6.5): the lazy policy trades more NVM writes for runtime
// performance. Fine-grained loading is enabled for both, as in the paper.
// Write volume is measured from a cold start: populating the buffers is part
// of each policy's NVM wear.
func fig13(o Opts) []spec {
	var gs []group
	for _, wl := range []WorkloadKind{YCSBRO, YCSBBA, YCSBWH} {
		var ps []point
		for _, pol := range []policy.Policy{policy.Hymem, policy.SpitfireLazy} {
			p := hymemRig(o, wl, pol, true, false, 0, 7500)
			p.cold = true
			ps = append(ps, p)
		}
		gs = append(gs, group{ps, func(rs []result) [][]string {
			hymem, lazy := rs[0].NVMBytesWritten, rs[1].NVMBytesWritten
			ratio := 0.0
			if hymem > 0 {
				ratio = float64(lazy) / float64(hymem)
			}
			return [][]string{{wl.String(), mbs(hymem), mbs(lazy), fmt.Sprintf("%.2fx", ratio)}}
		}})
	}
	return one("fig13", "NVM write volume (paper-GB = simulated MB): HyMem vs Spitfire-Lazy",
		[]string{"workload", "Hymem", "Spf-Lazy", "ratio"}, gs)
}

// fig14 is the storage-system design grid search of §6.6, eight workers per
// candidate. Cells report throughput/cost (ops/s/$); design.Search ranks the
// candidates and design.Best names the winner.
func fig14(o Opts) []spec {
	drams, nvms := design.GridAxes()
	// gridRows renders the grid, one row per DRAM size.
	gridRows := func(cell func(design.Hierarchy) string) (rows [][]string) {
		for _, d := range drams {
			cells := []string{fmt.Sprintf("%g", d)}
			for _, n := range nvms {
				cells = append(cells, cell(design.GridCell(d, n)))
			}
			rows = append(rows, cells)
		}
		return rows
	}
	header := headerOf([]string{"DRAM\\NVM"}, nvms)
	specs := one("fig14a", "Storage system cost ($, Table 1 prices, 200 GB SSD)", header,
		fixed(gridRows(func(h design.Hierarchy) string { return fmt.Sprintf("%.0f", design.Cost(h)) })...))
	grid := design.Grid()
	for _, wl := range []WorkloadKind{YCSBRO, YCSBBA, YCSBWH} {
		var ps []point
		for _, h := range grid {
			ps = append(ps, gridPoint(wl, h).drive(8, o.ops(2000), o.ops(4000)))
		}
		specs = append(specs, spec{
			id:     "fig14-" + wl.String(),
			title:  fmt.Sprintf("Throughput/cost (ops/s/$) heat map, %s", wl),
			header: header,
			groups: []group{{ps, func(rs []result) [][]string {
				measured := make(map[design.Hierarchy]float64, len(grid))
				for i, h := range grid {
					measured[h] = rs[i].Throughput
				}
				ranked := design.Search(grid, func(h design.Hierarchy) float64 { return measured[h] })
				perfPrice := make(map[design.Hierarchy]float64, len(ranked))
				for _, r := range ranked {
					perfPrice[r.Hierarchy] = r.PerfPrice
				}
				rows := gridRows(func(h design.Hierarchy) string {
					pp, ok := perfPrice[h]
					if !ok {
						return "-" // the bufferless corner is no candidate
					}
					return fmt.Sprintf("%.0f", pp)
				})
				best, _ := design.Best(ranked, 0)
				return append(rows, []string{"best", best.Hierarchy.String(), fmt.Sprintf("%.0f ops/s/$", best.PerfPrice), "", ""})
			}}},
		})
	}
	return specs
}

// fig15 sweeps the database size from cacheable to far-beyond-buffer for
// §6.7's five equi-cost configurations.
func fig15(o Opts) []spec {
	sizes := []float64{5, 35, 70, 105, 140}
	if o.Quick {
		sizes = []float64{5, 70, 140}
	}
	var gs []group
	for _, wl := range []WorkloadKind{YCSBRO, YCSBBA, YCSBWH, TPCC} {
		for _, c := range equiCost() {
			var ps []point
			for _, db := range sizes {
				ps = append(ps, c.on(wl, db).drive(8, o.ops(2000), o.ops(4000)))
			}
			gs = append(gs, row(throughput, ps, wl.String(), c.name))
		}
	}
	return one("fig15", "Throughput (kops/s) vs database size (paper-GB) for five equi-cost configurations",
		headerOf([]string{"workload", "config"}, sizes), gs)
}
