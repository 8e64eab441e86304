package engine

import (
	"runtime"
	"testing"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/testutil"
	"github.com/spitfire-db/spitfire/internal/wal"
)

// TestHeapFollowsData holds the process to its configuration: on the
// kv-txn shape (100 k keys × 200 B over 2 MiB of DRAM and 8 MiB of NVM
// buffers, WAL on) the live heap after a checkpoint is the arenas, the
// in-memory SSD's pages and the per-key index and version-store entries —
// and it is the same after every further 100 k puts, because neither the
// log nor the version store keeps what a checkpoint made unnecessary.
func TestHeapFollowsData(t *testing.T) {
	if testing.Short() || testutil.RaceEnabled() {
		t.Skip("sizes a 100 k-key database; heap readings are not meaningful under -race")
	}
	const (
		keys     = 100_000
		valueLen = 200
		rounds   = 4
		ceiling  = 130 << 20
	)
	nvmBytes := int64(8 << 20)
	bm, err := core.New(core.Config{
		DRAMBytes: 2 << 20, NVMBytes: nvmBytes, Policy: policy.SpitfireLazy,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := wal.New(wal.Options{
		Buffer: pmem.New(pmem.Options{Size: 4 << 20}),
		Store:  wal.NewMemLog(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{BM: bm, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	kv, err := OpenKV(db, 1, "kv", 256)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(11)
	val := make([]byte, valueLen)

	liveAfterCheckpoint := func() uint64 {
		t.Helper()
		if skipped, err := db.Checkpoint(ctx); err != nil || skipped != 0 {
			t.Fatalf("checkpoint: skipped %d, err %v", skipped, err)
		}
		if n := db.VersionsRetained(); n != 0 {
			t.Fatalf("%d versions retained after a quiescent checkpoint", n)
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	for base := uint64(0); base < keys; base += 512 {
		txn := db.Begin()
		for k := base; k < min(base+512, keys); k++ {
			if err := kv.Put(ctx, txn, k, val); err != nil {
				t.Fatalf("load key %d: %v", k, err)
			}
		}
		if err := txn.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	loaded := liveAfterCheckpoint()

	var lo, hi uint64
	for r := 0; r < rounds; r++ {
		for i := uint64(0); i < keys; i++ {
			val[0] = byte(r + 1)
			txn := db.Begin()
			if err := kv.Put(ctx, txn, i*7919%keys, val); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(ctx); err != nil {
				t.Fatal(err)
			}
		}
		live := liveAfterCheckpoint()
		t.Logf("live heap after load %d MiB, after round %d: %d MiB", loaded>>20, r+1, live>>20)
		if r == 0 || live < lo {
			lo = live
		}
		hi = max(hi, live)
	}
	if hi > ceiling {
		t.Errorf("live heap reached %d MiB after a checkpoint, ceiling %d MiB", hi>>20, ceiling>>20)
	}
	if float64(hi) > 1.10*float64(lo) {
		t.Errorf("live heap after a checkpoint wanders %d–%d MiB over %d rounds of %d puts; it should follow the data, which did not grow", lo>>20, hi>>20, rounds, keys)
	}
}
