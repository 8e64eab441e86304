// ycsb-adaptive runs the paper's §6.4 scenario as a program: a YCSB
// workload starts under the eager migration policy and the
// simulated-annealing tuner adapts ⟨D, N⟩ epoch by epoch, converging
// toward the lazy policy without manual tuning.
package main

import (
	"fmt"
	"log"

	"github.com/spitfire-db/spitfire/internal/ycsb"

	spitfire "github.com/spitfire-db/spitfire"
)

func main() {
	const MB = 1 << 20

	db, err := spitfire.Build(spitfire.Spec{
		DRAMBytes: 2 * MB,
		NVMBytes:  10 * MB,
		Policy:    spitfire.SpitfireEager, // deliberately start eager
	}).Open()
	if err != nil {
		log.Fatal(err)
	}
	bm := db.BM()
	bm.StartCleaners()
	defer bm.Close()
	w, err := ycsb.Setup(db, ycsb.RecordsForBytes(16*MB), ycsb.DefaultTheta)
	if err != nil {
		log.Fatal(err)
	}

	tuner := spitfire.NewTuner(spitfire.TunerOptions{
		Initial:   spitfire.SpitfireEager,
		LockstepD: true,
		LockstepN: true,
		Seed:      7,
	})

	const (
		epochs      = 40
		opsPerEpoch = 4000
	)
	worker := w.NewWorker(1)
	cand := tuner.Propose()
	fmt.Println("epoch  policy                     kops/s")
	for ep := 0; ep < epochs; ep++ {
		if err := bm.SetPolicy(cand); err != nil {
			log.Fatal(err)
		}
		start := worker.Ctx().Clock.Now()
		startOps := worker.Committed
		if err := worker.Run(ycsb.ReadOnly, opsPerEpoch); err != nil {
			log.Fatal(err)
		}
		elapsed := float64(worker.Ctx().Clock.Now()-start) / 1e9
		tput := float64(worker.Committed-startOps) / elapsed
		if ep%4 == 0 || ep == epochs-1 {
			fmt.Printf("%5d  %-25s  %8.1f\n", ep, cand, tput/1000)
		}
		cand = tuner.Observe(tput)
	}
	best := tuner.Best()
	fmt.Printf("\nconverged toward %v (the paper's lazy optimum is ⟨D≈0.01, N lazy⟩)\n", best)
}
