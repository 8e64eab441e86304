package engine

import (
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/wal"
)

func machineSpec(logDIMM bool) Spec {
	return Spec{
		DRAMBytes:    4 * core.PageSize,
		NVMBytes:     16 * core.NVMFrameSlot,
		Policy:       policy.SpitfireLazy,
		LogDIMM:      logDIMM,
		TrackCrashes: true,
	}
}

// TestMachineRecoversCommittedRows: build, open, commit, crash, recover —
// every committed row comes back, with the log buffer on the data DIMM and on
// a DIMM of its own. The engine Open assembles runs on the machine's media:
// the data arena and the log buffer share one NVM device unless LogDIMM, and
// the page store and the log file share one SSD device.
func TestMachineRecoversCommittedRows(t *testing.T) {
	for _, logDIMM := range []bool{false, true} {
		t.Run(fmt.Sprintf("LogDIMM=%v", logDIMM), func(t *testing.T) {
			m := Build(machineSpec(logDIMM))
			if shared := m.Log.Device() == m.Data.Device(); shared == logDIMM {
				t.Fatalf("log buffer shares the data arena's device: %v, want %v", shared, !logDIMM)
			}
			if m.Pages.Device() != m.LogFile.Device() {
				t.Fatal("page store and log file are on two SSD devices")
			}
			db, err := m.Open()
			if err != nil {
				t.Fatal(err)
			}
			db.BM().StartCleaners()
			if db.BM().PMem() != m.Data || db.BM().Disk() != m.Pages || db.WAL().BufferBytes() != m.Log.Size() {
				t.Fatal("the opened engine does not run on the machine's media")
			}

			const rows = 3000 // ~15 pages: more than the DRAM buffer holds
			tb, err := db.CreateTable(1, "t", 64)
			if err != nil {
				t.Fatal(err)
			}
			ctx := core.NewCtx(1)
			if err := tb.Load(ctx, rows, func(i uint64, p []byte) uint64 { return i }); err != nil {
				t.Fatal(err)
			}
			row := make([]byte, 64)
			for k := uint64(0); k < rows; k += 3 {
				txn := db.Begin()
				binary.LittleEndian.PutUint64(row, k+1000)
				if err := tb.Update(ctx, txn, k, row); err != nil {
					t.Fatal(err)
				}
				if err := txn.Commit(ctx); err != nil {
					t.Fatal(err)
				}
			}

			m.Crash()
			rctx := NewRecoveryCtx()
			db2, _, err := m.Recover(rctx, []TableDef{{ID: 1, Name: "t", TupleSize: 64}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.BM().Close()
			if err := db2.BM().CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			txn := db2.Begin()
			defer txn.Commit(rctx)
			for k := uint64(0); k < rows; k++ {
				if err := db2.Table(1).Read(rctx, txn, k, row); err != nil {
					t.Fatalf("row %d: %v", k, err)
				}
				want := uint64(0)
				if k%3 == 0 {
					want = k + 1000
				}
				if got := binary.LittleEndian.Uint64(row); got != want {
					t.Fatalf("row %d recovered %d, want %d", k, got, want)
				}
			}
		})
	}
}

// TestLogDIMMOutlivesDataDIMM pins the premise of the degraded-mode run: with
// LogDIMM, a data DIMM that fails every write fails no log append. Without
// it the same injector does, since the log buffer is on that DIMM.
func TestLogDIMMOutlivesDataDIMM(t *testing.T) {
	for _, logDIMM := range []bool{false, true} {
		m := Build(machineSpec(logDIMM))
		db, err := m.Open()
		if err != nil {
			t.Fatal(err)
		}
		db.BM().StartCleaners()
		m.Data.Device().SetFaults(device.NewInjector(device.FaultConfig{Seed: 1, FailAfterWrites: 1}))
		ctx := core.NewCtx(2)
		var appendErr error
		for i := 0; i < 20 && appendErr == nil; i++ {
			_, appendErr = db.WAL().Append(ctx.Clock, &wal.Record{TxnID: uint64(i + 1), Type: wal.RecCommit})
		}
		db.BM().Close()
		if logDIMM && appendErr != nil {
			t.Fatalf("LogDIMM: a failed data DIMM failed a log append: %v", appendErr)
		}
		if !logDIMM && appendErr == nil {
			t.Fatal("shared DIMM: a failed data DIMM failed no log append")
		}
	}
}
