package spitfire_test

import (
	"fmt"

	spitfire "github.com/spitfire-db/spitfire"
)

// ExampleNew shows the smallest three-tier round trip: create a page,
// write it, evict-churn it through the hierarchy, and read it back.
func ExampleNew() {
	bm, err := spitfire.New(spitfire.Config{
		DRAMBytes: 4 * spitfire.PageSize,
		NVMBytes:  16 * spitfire.PageSize,
		Policy:    spitfire.SpitfireLazy,
	})
	if err != nil {
		panic(err)
	}
	ctx := spitfire.NewCtx(7)

	pid, h, _ := bm.NewPage(ctx)
	h.WriteAt(ctx, 0, []byte("three tiers"))
	h.Release()

	h, _ = bm.FetchPage(ctx, pid, spitfire.ReadIntent)
	buf := make([]byte, 11)
	h.ReadAt(ctx, 0, buf)
	h.Release()
	fmt.Println(string(buf))
	// Output: three tiers
}

// ExampleBuild describes a machine, builds it and runs one transaction on
// the database it opens; the log buffer shares the data arena's NVM device.
func ExampleBuild() {
	m := spitfire.Build(spitfire.Spec{
		DRAMBytes: 4 * spitfire.PageSize,
		NVMBytes:  16 * spitfire.PageSize,
		Policy:    spitfire.SpitfireLazy,
	})
	db, err := m.Open()
	if err != nil {
		panic(err)
	}
	db.BM().StartCleaners()
	defer db.BM().Close()
	tb, _ := db.CreateTable(1, "t", 64)
	ctx := spitfire.NewCtx(1)
	row := make([]byte, 64)
	copy(row, "one row")
	txn := db.Begin()
	tb.Insert(ctx, txn, 1, row)
	txn.Commit(ctx)

	buf := make([]byte, 64)
	txn = db.Begin()
	tb.Read(ctx, txn, 1, buf)
	txn.Commit(ctx)
	fmt.Println(string(buf[:7]), m.Log.Device() == m.Data.Device())
	// Output: one row true
}

// ExamplePolicy shows the paper's Table 3 presets and the policy tuple
// notation.
func ExamplePolicy() {
	fmt.Println(spitfire.SpitfireLazy)
	fmt.Println(spitfire.Hymem)
	// Output:
	// ⟨Dr=0.01, Dw=0.01, Nr=0.2, Nw=1⟩
	// ⟨Dr=1, Dw=1, Nr=0, Nw=AdmQueue⟩
}

// ExampleNewTuner runs a few epochs of the §4 adaptation loop against a
// synthetic workload response that prefers lazy DRAM migration.
func ExampleNewTuner() {
	tn := spitfire.NewTuner(spitfire.TunerOptions{
		Initial:   spitfire.SpitfireEager,
		LockstepD: true,
		LockstepN: true,
		Seed:      42,
	})
	p := tn.Propose()
	for i := 0; i < 200; i++ {
		throughput := 1e6 * (1.2 - p.Dr) // lazier D is faster here
		p = tn.Observe(throughput)
	}
	fmt.Println("best D:", tn.Best().Dr)
	// Output: best D: 0
}
