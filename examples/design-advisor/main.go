// design-advisor answers the storage-system design question of §5.3/§6.6:
// given a cost budget and a target workload, which DRAM/NVM/SSD hierarchy
// has the best performance per dollar? It measures every candidate on the
// actual workload (a miniature grid search) and prints a ranked
// recommendation.
package main

import (
	"fmt"
	"log"

	"github.com/spitfire-db/spitfire/internal/design"
	"github.com/spitfire-db/spitfire/internal/ycsb"

	spitfire "github.com/spitfire-db/spitfire"
)

const MB = 1 << 20

// measure loads a fresh YCSB-BA database on the hierarchy and returns
// steady-state throughput (ops per simulated second).
func measure(h design.Hierarchy) float64 {
	db, err := spitfire.Build(spitfire.Spec{
		DRAMBytes: int64(h.DRAMGB * MB), // paper-GB -> simulated MB
		NVMBytes:  int64(h.NVMGB * MB),
		Policy:    spitfire.SpitfireLazy,
	}).Open()
	if err != nil {
		return 0 // bufferless candidates are infeasible
	}
	db.BM().StartCleaners()
	defer db.BM().Close()
	w, err := ycsb.Setup(db, ycsb.RecordsForBytes(24*MB), 0.5)
	if err != nil {
		log.Fatal(err)
	}
	wk := w.NewWorker(11)
	if err := wk.Run(ycsb.Balanced, 2000); err != nil { // warm-up
		log.Fatal(err)
	}
	start, ops0 := wk.Ctx().Clock.Now(), wk.Committed
	if err := wk.Run(ycsb.Balanced, 4000); err != nil {
		log.Fatal(err)
	}
	elapsed := float64(wk.Ctx().Clock.Now()-start) / 1e9
	return float64(wk.Committed-ops0) / elapsed
}

func main() {
	// A reduced grid (the full Figure 14 grid lives in spitfire-bench).
	var candidates []design.Hierarchy
	for _, d := range []float64{0, 4, 8} {
		for _, n := range []float64{0, 20, 40} {
			if d == 0 && n == 0 {
				continue
			}
			candidates = append(candidates, design.Hierarchy{DRAMGB: d, NVMGB: n, SSDGB: 200})
		}
	}

	fmt.Println("Measuring candidate hierarchies on YCSB-BA (skew 0.5, 24 GB database)...")
	results := design.Search(candidates, measure)

	fmt.Printf("\n%-28s %10s %8s %12s\n", "hierarchy (paper-GB)", "kops/s", "cost $", "ops/s/$")
	for _, r := range results {
		fmt.Printf("%-28s %10.1f %8.0f %12.1f\n",
			r.Hierarchy, r.Throughput/1000, r.Cost, r.PerfPrice)
	}

	if best, ok := design.Best(results, 0); ok {
		fmt.Printf("\nunconstrained pick: %s (%.1f ops/s/$)\n", best.Hierarchy, best.PerfPrice)
	}
	if best, ok := design.Best(results, 700); ok {
		fmt.Printf("within a $700 budget: %s ($%.0f)\n", best.Hierarchy, best.Cost)
	}
}
