package harness

import (
	"fmt"

	"github.com/spitfire-db/spitfire/internal/anneal"
	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/policy"
)

// The three experiments below are extensions beyond the paper.

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

// churnPoint is the write-heavy rig of the two cleaner experiments: the §6.4
// buffers (2.5 GB DRAM + 10 GB NVM) under a 40 GB YCSB-WH database, four
// workers, Spitfire-Lazy unless the setting says otherwise.
func churnPoint(pol policy.Policy, cc core.CleanerConfig, ops int) point {
	p := point{dram: 2.5, nvm: 10, pol: pol, cleaner: cc}
	return p.on(YCSBWH, 40).drive(4, 1500, ops)
}

// extraCleaner sweeps the background page cleaner's watermark/batch settings
// on a churny write-heavy workload. The cleaner runs on wall-clock time, so
// the simulated-throughput column is observational, not a reproduction
// target: its benefit is wall-clock (bench/'s bm-churn workload and the
// core.*_per_kop metrics measure it), and in virtual time it pays the same
// device traffic from a different clock. What the sweep shows is the
// watermark protocol: higher watermarks and bigger batches move evictions
// from the fg-evicts column into pre-cleaned/batches.
func extraCleaner(o Opts) []spec {
	dramFrames := int(o.sz(2.5) / core.PageSize)
	var gs []group
	for _, c := range []struct {
		name string
		cc   core.CleanerConfig
	}{
		{"off (inline eviction)", core.CleanerConfig{}},
		{"defaults (low=n/8 high=n/4 batch=8)", core.CleanerConfig{Enable: true}},
		{"aggressive (low=n/4 high=n/2 batch=8)", core.CleanerConfig{
			Enable: true, LowWater: dramFrames / 4, HighWater: dramFrames / 2,
		}},
		{"big batches (defaults, batch=32)", core.CleanerConfig{Enable: true, BatchSize: 32}},
	} {
		gs = append(gs, single(churnPoint(policy.SpitfireLazy, c.cc, o.ops(2000)), func(r result) []string {
			return []string{
				c.name,
				throughput(r),
				fmt.Sprint(r.Stats.CleanerCleanedDRAM + r.Stats.CleanerCleanedNVM),
				fmt.Sprint(r.Stats.CleanerBatches),
				fmt.Sprint(r.Stats.ForegroundEvicts),
				fmt.Sprint(r.Stats.CleanerStalls),
			}
		}))
	}
	return one("extra-cleaner", "Background cleaner watermark/batch sweep on YCSB-WH (beyond the paper)",
		[]string{"cleaner", "kops/s", "pre-cleaned", "batches", "fg evicts", "stalls"}, gs)
}

// extraAdmit pits the mechanisms that decide which dirty DRAM evictees earn
// an NVM frame against each other on a write-heavy workload:
//
//   - plain probabilistic Nw with inline foreground eviction, as the control;
//   - HyMem's NwAdmissionQueue (a page must be evicted twice before it is
//     admitted), also inline;
//   - the background cleaner under probabilistic Nw: the write-backs it
//     takes off the foreground path go through the same admission queue
//     instead of the Nw coin, so only pages evicted twice are installed,
//     while the residual foreground evictions still flip the coin.
//
// The useful-admission signal is the hit rate *of the admitted frames*:
// HitNVMCleanerAdmitted/CleanerAdmittedNVM for the cleaner's installs vs
// HitNVM/(SSDToNVM+DRAMToNVM) overall.
func extraAdmit(o Opts) []spec {
	lazyQueue := policy.SpitfireLazy
	lazyQueue.NwMode = policy.NwAdmissionQueue

	var gs []group
	for _, c := range []struct {
		name    string
		pol     policy.Policy
		cleaner core.CleanerConfig
	}{
		{"Nw probabilistic, no cleaner (control)", policy.SpitfireLazy, core.CleanerConfig{}},
		{"Nw admission queue (HyMem), no cleaner", lazyQueue, core.CleanerConfig{}},
		{"Nw probabilistic, cleaner feeds the queue", policy.SpitfireLazy, core.CleanerConfig{Enable: true}},
	} {
		gs = append(gs, single(churnPoint(c.pol, c.cleaner, o.ops(2500)), func(r result) []string {
			installs := r.Stats.SSDToNVM + r.Stats.DRAMToNVM
			ratio := "-"
			if installs > 0 {
				ratio = fmt.Sprintf("%.2f", float64(r.Stats.HitNVM)/float64(installs))
			}
			return []string{
				c.name,
				throughput(r),
				fmt.Sprint(installs),
				fmt.Sprint(r.Stats.HitNVM),
				ratio,
				fmt.Sprint(r.Stats.CleanerAdmittedNVM),
				fmt.Sprint(r.Stats.HitNVMCleanerAdmitted),
			}
		}))
	}
	return one("extra-admit", "NVM admission: HyMem queue vs cleaner-fed queue on YCSB-WH (beyond the paper)",
		[]string{"admission", "kops/s", "NVM installs", "NVM hits", "hit/install", "cleaner installs", "cleaner-frame hits"}, gs)
}
