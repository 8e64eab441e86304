package harness

import (
	"fmt"

	"github.com/spitfire-db/spitfire/internal/anneal"
	"github.com/spitfire-db/spitfire/internal/policy"
)

// The two experiments below are extensions beyond the paper.

// extraWear automates a choice the paper leaves manual: §6.3 closes by
// noting that "the optimal policy must be chosen depending on the
// performance requirements and write endurance characteristics of NVM".
// The §6.4 tuner runs with the wear-aware cost function cost = γ/T + λ·W/T
// and the endurance weight λ is swept. Higher λ should push the converged
// policy toward fewer NVM writes at some throughput cost — an automated
// version of the Figure 8 trade-off.
func extraWear(o Opts) []spec {
	epochs := 60
	if o.Quick {
		epochs = 25
	}
	var gs []group
	for _, lambda := range []float64{0, 5e-8, 1e-6} {
		cost := anneal.WearAwareCost{Lambda: lambda}
		p := adaptive(YCSBBA, 8, o.ops(1500), o.ops(1200), tuning{epochs: epochs, stride: 17, wear: &cost})
		gs = append(gs, single(p, func(r result) []string {
			// Report the wear profile of the best-cost epoch.
			var best result
			bestCost := 0.0
			for i, ep := range r.epochs {
				if c := cost.Cost(ep.Throughput, ep.nvmWriteRate()); i == 0 || c < bestCost {
					best, bestCost = ep, c
				}
			}
			return []string{
				fmt.Sprintf("%g", lambda),
				policyCell(best.pol),
				throughput(best),
				fmt.Sprintf("%.1f", best.nvmWriteRate()/float64(MB)),
			}
		}))
	}
	return one("extra-wear", "Wear-aware adaptive tuning (beyond the paper): λ sweep on YCSB-BA",
		[]string{"lambda", "policy found", "kops/s", "NVM MB/s written"}, gs)
}

// extraAdmit pits the two mechanisms that decide which dirty DRAM evictees
// earn an NVM frame against each other on a write-heavy workload — the §6.4
// buffers (2.5 GB DRAM + 10 GB NVM) under a 40 GB YCSB-WH database, four
// workers:
//
//   - plain probabilistic Nw, as the control;
//   - HyMem's NwAdmissionQueue (a page must be evicted twice before it is
//     admitted).
//
// The useful-admission signal is the hit rate of the admitted frames,
// HitNVM/(SSDToNVM+DRAMToNVM).
func extraAdmit(o Opts) []spec {
	lazyQueue := policy.SpitfireLazy
	lazyQueue.NwMode = policy.NwAdmissionQueue

	var gs []group
	for _, c := range []struct {
		name string
		pol  policy.Policy
	}{
		{"Nw probabilistic (control)", policy.SpitfireLazy},
		{"Nw admission queue (HyMem)", lazyQueue},
	} {
		p := point{dram: 2.5, nvm: 10, pol: c.pol}.on(YCSBWH, 40).drive(4, 1500, o.ops(2500))
		gs = append(gs, single(p, func(r result) []string {
			installs := r.Stats.SSDToNVM + r.Stats.DRAMToNVM
			ratio := "-"
			if installs > 0 {
				ratio = fmt.Sprintf("%.2f", float64(r.Stats.HitNVM)/float64(installs))
			}
			return []string{c.name, throughput(r), fmt.Sprint(installs), fmt.Sprint(r.Stats.HitNVM), ratio}
		}))
	}
	return one("extra-admit", "NVM admission: probabilistic Nw vs HyMem's queue on YCSB-WH (beyond the paper)",
		[]string{"admission", "kops/s", "NVM installs", "NVM hits", "hit/install"}, gs)
}
