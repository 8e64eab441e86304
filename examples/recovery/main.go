// recovery demonstrates the paper's §5.2 durability story end to end:
// a database commits transactions whose durability rests only on the NVM
// log buffer and NVM-resident pages (no synchronous SSD writes), the
// machine "crashes", and recovery rebuilds the mapping table from the
// self-identifying NVM frames, completes the log, and runs
// analysis/redo/undo — after which exactly the committed state is visible.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	spitfire "github.com/spitfire-db/spitfire"
)

const (
	tableID   = 1
	tupleSize = 64
)

func payload(v uint64) []byte {
	p := make([]byte, tupleSize)
	binary.LittleEndian.PutUint64(p, v)
	return p
}

func value(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }

func main() {
	// The machine's NVM arenas (data and log buffer) are crash-tracked:
	// writes are volatile until clwb+sfence.
	m := spitfire.Build(spitfire.Spec{
		DRAMBytes:    8 * spitfire.PageSize,
		NVMBytes:     64 * (spitfire.PageSize + 64),
		Policy:       spitfire.SpitfireLazy,
		TrackCrashes: true,
	})
	db, err := m.Open()
	if err != nil {
		log.Fatal(err)
	}
	db.BM().StartCleaners()
	tb, err := db.CreateTable(tableID, "accounts", tupleSize)
	if err != nil {
		log.Fatal(err)
	}
	ctx := spitfire.NewCtx(1)

	// 100 accounts with balance 1000 each.
	if err := tb.Load(ctx, 100, func(i uint64, p []byte) uint64 {
		binary.LittleEndian.PutUint64(p, 1000)
		return i
	}); err != nil {
		log.Fatal(err)
	}

	// Committed transfer: account 1 -> account 2, 250 units.
	xfer := db.Begin()
	buf := make([]byte, tupleSize)
	must(tb.Read(ctx, xfer, 1, buf))
	must(tb.Update(ctx, xfer, 1, payload(value(buf)-250)))
	must(tb.Read(ctx, xfer, 2, buf))
	must(tb.Update(ctx, xfer, 2, payload(value(buf)+250)))
	must(xfer.Commit(ctx))
	fmt.Println("committed: transfer of 250 from account 1 to account 2")

	// In-flight transfer that will NOT survive: account 3 -> 4.
	loser := db.Begin()
	must(tb.Read(ctx, loser, 3, buf))
	must(tb.Update(ctx, loser, 3, payload(value(buf)-999)))
	fmt.Println("in flight:  uncommitted withdrawal of 999 from account 3")

	// CRASH. Unpersisted stores in both arenas are lost.
	m.Crash()
	fmt.Println("\n*** power failure ***")

	// Recovery: rebuild the buffer manager from the surviving arena, then
	// complete the log and run analysis/redo/undo.
	rctx := spitfire.NewCtx(2)
	db2, rl, err := m.Recover(rctx, []spitfire.TableDef{{ID: tableID, Name: "accounts", TupleSize: tupleSize}}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered: %d NVM pages rescanned, %d committed txns, %d losers rolled back\n\n",
		db2.BM().Stats().RecoveredNVMPages, len(rl.Committed), len(rl.Losers))

	check := db2.Begin()
	total := uint64(0)
	for _, acct := range []uint64{1, 2, 3, 4} {
		must(db2.Table(tableID).Read(rctx, check, acct, buf))
		fmt.Printf("account %d balance: %d\n", acct, value(buf))
		total += value(buf)
	}
	must(check.Commit(rctx))
	if total != 4000 {
		log.Fatalf("money not conserved: total = %d", total)
	}
	fmt.Println("\nmoney conserved; committed transfer durable; loser rolled back ✔")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
