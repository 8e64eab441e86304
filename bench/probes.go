package main

import (
	"github.com/spitfire-db/spitfire/internal/bitmapclock"
	"github.com/spitfire-db/spitfire/internal/btree"
	"github.com/spitfire-db/spitfire/internal/cht"
	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/mvto"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/vclock"
	"github.com/spitfire-db/spitfire/internal/wal"
)

// Unit probes time the leaf layers the drivers never call directly, on
// structures sized like the workload's, so a change inside one of them has a
// number of its own to move. One goroutine, batches of probeBatch calls
// until the budget is spent; the value is the mean host time of one call.
const probeBatch = 1024

func probe(budgetNs int64, step func()) float64 {
	var calls, spent int64
	for spent < budgetNs {
		t0 := now()
		for i := 0; i < probeBatch; i++ {
			step()
		}
		spent += now() - t0
		calls += probeBatch
	}
	return float64(spent) / float64(calls)
}

// discardLog is a LogStore that keeps nothing: the wal probe measures the
// manager's append path, not MemLog's growth.
type discardLog struct{}

func (discardLog) Append(*vclock.Clock, []byte) error    { return nil }
func (discardLog) ReadAll(*vclock.Clock) ([]byte, error) { return nil, nil }
func (discardLog) Truncate(*vclock.Clock) error          { return nil }

// sink keeps probe results alive so the calls are not optimised away.
var sink uint64

// runProbes fills the probe metrics. items is the workload's page or key
// count; frames its DRAM frame count; each probe gets budgetNs.
func runProbes(m *metricSet, seed uint64, items, frames int, budgetNs int64) error {
	r := newRNG(seed ^ 0x9806E5)
	z := newZipfTable(items, 0.9, seed)

	table := cht.New[uint64, *int](cht.Uint64Hash)
	for i := 0; i < items; i++ {
		table.Put(uint64(i), new(int))
	}
	m.set("cht.get_ns", probe(budgetNs, func() {
		if _, ok := table.Get(z.draw(r)); ok {
			sink++
		}
	}))

	// Half the frames referenced when the hand arrives, as in a pool whose
	// working set is twice its size: re-reference a random frame per victim.
	clk := bitmapclock.New(frames)
	for i := 0; i < frames; i += 2 {
		clk.Ref(i)
	}
	m.set("bitmapclock.victim_ns", probe(budgetNs, func() {
		sink += uint64(clk.Victim())
		clk.Ref(r.intn(frames))
	}))

	const treeKeys = 100_000
	zk := newZipfTable(treeKeys, 0.9, seed)
	tree := btree.New[uint64]()
	for i := uint64(0); i < treeKeys; i++ {
		tree.Insert(i*2, i)
	}
	m.set("btree.get_ns", probe(budgetNs, func() {
		v, _ := tree.Get(zk.draw(r) * 2)
		sink += v
	}))
	m.set("btree.scan16_ns", probe(budgetNs, func() {
		n := 0
		tree.Scan(zk.draw(r)*2, func(_, v uint64) bool {
			sink += v
			n++
			return n < 16
		})
	}))
	// Insert then delete an odd key beside a zipf-chosen even one: the tree
	// stays at 100 k keys however long the probe runs.
	m.set("btree.insert_ns", probe(budgetNs, func() {
		k := zk.draw(r)*2 + 1
		tree.Insert(k, k)
		tree.Delete(k)
	})/2)

	tm := mvto.NewManager()
	wts := func() uint64 { return 0 }
	serve := func([]byte) error { return nil }
	var perr error
	m.set("mvto.read_txn_ns", probe(budgetNs, func() {
		txn := tm.Begin()
		if err := tm.Read(txn, zk.draw(r), wts, serve); err != nil {
			perr = err
		}
		tm.Commit(txn)
	}))

	w, err := wal.New(wal.Options{Buffer: pmem.New(pmem.Options{Size: 4 << 20}), Store: discardLog{}})
	if err != nil {
		return err
	}
	c := vclock.New()
	img := make([]byte, 2+kvMaxValue)
	m.set("wal.append_ns", probe(budgetNs, func() {
		up := wal.Record{TxnID: 1, Type: wal.RecUpdate, TableID: 1, PageID: 7, Slot: 3, Before: img, After: img}
		if _, err := w.Append(c, &up); err != nil {
			perr = err
		}
		if _, err := w.Append(c, &wal.Record{TxnID: 1, Type: wal.RecCommit}); err != nil {
			perr = err
		}
	}))

	const arena = 8 << 20
	pm := pmem.New(pmem.Options{Size: arena})
	unit := make([]byte, unitSize)
	m.set("pmem.write_persist_256b_ns", probe(budgetNs, func() {
		off := int64(r.intn(arena/unitSize)) * unitSize
		pm.Write(c, off, unit)
		pm.Persist(c, off, unitSize)
	}))

	dev := device.New(device.DRAMParams)
	m.set("device.dram_charge_ns", probe(budgetNs, func() {
		sink += uint64(dev.Read(c, unitSize))
	}))
	return perr
}
