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

// openKVTxnShape opens the kv-txn shape: 2 MiB of DRAM and 8 MiB of NVM
// buffers, WAL on, one KV table of values up to 256 B.
func openKVTxnShape(t *testing.T) (*DB, *KV, *core.Ctx) {
	t.Helper()
	bm, err := core.New(core.Config{
		DRAMBytes: 2 << 20, NVMBytes: 8 << 20, Policy: policy.SpitfireLazy,
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
	return db, kv, newCtx(11)
}

// loadKeys puts val under keys [0, n), 512 keys to a transaction.
func loadKeys(t *testing.T, db *DB, kv *KV, ctx *core.Ctx, n uint64, val []byte) {
	t.Helper()
	for base := uint64(0); base < n; base += 512 {
		txn := db.Begin()
		for k := base; k < min(base+512, n); k++ {
			if err := kv.Put(ctx, txn, k, val); err != nil {
				t.Fatalf("load key %d: %v", k, err)
			}
		}
		if err := txn.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// quiescentHeap checkpoints db, which must leave the version store empty,
// and reads the heap after a collection.
func quiescentHeap(t *testing.T, db *DB, ctx *core.Ctx) runtime.MemStats {
	t.Helper()
	if skipped, err := db.Checkpoint(ctx); err != nil || skipped != 0 {
		t.Fatalf("checkpoint: skipped %d, err %v", skipped, err)
	}
	if n := db.tm.Retained(); n != 0 {
		t.Fatalf("%d versions retained after a quiescent checkpoint", n)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(db) // or a reading after the caller's last use of db finds it collected
	return ms
}

// TestHeapFollowsData holds the process to its configuration: on the
// kv-txn shape (100 k keys × 200 B over 2 MiB of DRAM and 8 MiB of NVM
// buffers, WAL on) the live heap after a checkpoint is the arenas, the
// in-memory SSD's pages, the index and the version store's per-tuple entries —
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
	db, kv, ctx := openKVTxnShape(t)
	val := make([]byte, valueLen)
	liveAfterCheckpoint := func() uint64 { return quiescentHeap(t, db, ctx).HeapAlloc }

	loadKeys(t, db, kv, ctx, keys, val)
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

// TestHeapObjectsPerKey counts what TestHeapFollowsData weighs: every
// object a loaded key leaves on the heap is one more for each collection to
// mark. Pages, index nodes and the directory blocks of the page table and
// the version store are shared by many keys, so a key's share stays far
// below one object (0.17 on the kv-txn shape); any per-key object would put
// it above one.
func TestHeapObjectsPerKey(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("heap readings are not meaningful under -race")
	}
	const (
		keys   = 20_000
		budget = 0.25
	)
	db, kv, ctx := openKVTxnShape(t)
	empty := quiescentHeap(t, db, ctx).HeapObjects
	loadKeys(t, db, kv, ctx, keys, make([]byte, 200))
	loaded := quiescentHeap(t, db, ctx).HeapObjects
	perKey := (float64(loaded) - float64(empty)) / keys
	t.Logf("%d keys left %d heap objects: %.3f per key", keys, int64(loaded)-int64(empty), perKey)
	if perKey > budget {
		t.Errorf("a loaded key leaves %.2f heap objects, budget %.2f", perKey, budget)
	}
}
