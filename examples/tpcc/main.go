// tpcc runs the TPC-C order-entry benchmark on two equi-cost storage
// hierarchies — a classic DRAM-SSD manager and Spitfire's lazy three-tier
// configuration — and reports committed throughput and the transaction mix,
// miniaturizing the comparison of §6.7.
package main

import (
	"fmt"
	"log"
	"sync"

	"github.com/spitfire-db/spitfire/internal/tpcc"

	spitfire "github.com/spitfire-db/spitfire"
)

const MB = 1 << 20

func run(name string, spec spitfire.Spec) {
	db, err := spitfire.Build(spec).Open()
	if err != nil {
		log.Fatal(err)
	}
	db.BM().StartCleaners()
	defer db.BM().Close()
	warehouses := tpcc.DefaultScale.WarehousesForBytes(8 * MB)
	w, err := tpcc.Setup(db, warehouses, tpcc.DefaultScale)
	if err != nil {
		log.Fatal(err)
	}

	const workers, opsEach = 4, 2500
	wks := make([]*tpcc.Worker, workers)
	var wg sync.WaitGroup
	for i := range wks {
		wks[i] = w.NewWorker(uint64(i) + 1)
		wg.Add(1)
		go func(wk *tpcc.Worker) {
			defer wg.Done()
			if err := wk.Run(opsEach); err != nil {
				log.Fatal(err)
			}
		}(wks[i])
	}
	wg.Wait()

	var committed, aborted int64
	var perType [5]int64
	var maxElapsed float64
	for _, wk := range wks {
		committed += wk.Committed
		aborted += wk.Aborted
		for i, n := range wk.PerType {
			perType[i] += n
		}
		if s := wk.Ctx().Clock.Seconds(); s > maxElapsed {
			maxElapsed = s
		}
	}
	fmt.Printf("%-28s %8.1f ktxn/s  (%d warehouses, %d committed, %d aborted)\n",
		name, float64(committed)/maxElapsed/1000, warehouses, committed, aborted)
	fmt.Printf("%-28s mix:", "")
	for t := tpcc.TxnNewOrder; t <= tpcc.TxnStockLevel; t++ {
		fmt.Printf(" %s=%d", t, perType[t])
	}
	fmt.Println()
}

func main() {
	fmt.Println("TPC-C on two equi-cost hierarchies (throughput in simulated time):")
	// ~ $: 4 MB DRAM  ==  1 MB DRAM + 6.7 MB NVM (Table 1 prices).
	run("DRAM-SSD (4 MB DRAM)", spitfire.Spec{
		DRAMBytes: 4 * MB,
		Policy:    spitfire.Policy{Dr: 1, Dw: 1},
	})
	run("three-tier lazy (1+6.7 MB)", spitfire.Spec{
		DRAMBytes: 1 * MB,
		NVMBytes:  6700 * 1024,
		Policy:    spitfire.SpitfireLazy,
	})
}
