package engine

import (
	"bytes"
	"errors"
	"testing"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/ssd"
	"github.com/spitfire-db/spitfire/internal/wal"
)

func TestCheckpointTruncatesLogAndSurvivesCrash(t *testing.T) {
	dataArena := pmem.New(pmem.Options{Size: 16 * (core.PageSize + 64), TrackCrashes: true})
	logArena := pmem.New(pmem.Options{Size: 1 << 17, TrackCrashes: true})
	disk := ssd.NewMem(nil)
	logStore := wal.NewMemLog(nil)

	bm, err := core.New(core.Config{
		DRAMBytes: 4 * core.PageSize, NVMBytes: dataArena.Size(),
		Policy: policy.SpitfireLazy, PMem: dataArena, SSD: disk,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := wal.New(wal.Options{Buffer: logArena, Store: logStore})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{BM: bm, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable(1, "kv", testTupleSize)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(40)
	tb.Load(ctx, 8, func(i uint64, p []byte) uint64 { p[9] = 1; return i })

	// Commit a batch of updates, then checkpoint.
	for k := uint64(0); k < 8; k++ {
		txn := db.Begin()
		if err := tb.Update(ctx, txn, k, payloadFor(k, 3)); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	skipped, err := db.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("quiescent checkpoint skipped %d pages", skipped)
	}
	// Only the checkpoint record remains in the log pipeline.
	if err := w.Flush(ctx.Clock); err != nil {
		t.Fatal(err)
	}
	raw, _ := logStore.ReadAll(ctx.Clock)
	if len(raw) > 256 {
		t.Fatalf("log holds %d bytes after checkpoint; truncation failed", len(raw))
	}

	// Crash and recover: the updates must survive purely via pages (the
	// truncated log contributes nothing).
	dataArena.Crash()
	logArena.Crash()
	bm2, err := core.Recover(core.Config{
		DRAMBytes: 4 * core.PageSize, NVMBytes: dataArena.Size(),
		Policy: policy.SpitfireLazy, PMem: dataArena, SSD: disk,
	})
	if err != nil {
		t.Fatal(err)
	}
	rctx := NewRecoveryCtx()
	db2, rl, err := Recover(rctx, RecoverOptions{
		BM:     bm2,
		WAL:    wal.Options{Buffer: logArena, Store: logStore},
		Schema: []TableDef{{ID: 1, Name: "kv", TupleSize: testTupleSize}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rl.Losers) != 0 {
		t.Fatalf("losers after clean checkpointed crash: %v", rl.Losers)
	}
	check := db2.Begin()
	buf := make([]byte, testTupleSize)
	for k := uint64(0); k < 8; k++ {
		if err := db2.Table(1).Read(rctx, check, k, buf); err != nil {
			t.Fatal(err)
		}
		if buf[9] != 3 {
			t.Fatalf("key %d lost checkpointed update: version %d", k, buf[9])
		}
	}
	check.Commit(rctx)
}

func TestCheckpointWithoutWAL(t *testing.T) {
	db := newTestDB(t, false)
	tb, _ := db.CreateTable(1, "kv", testTupleSize)
	ctx := newCtx(41)
	tb.Load(ctx, 4, func(i uint64, p []byte) uint64 { return i })
	txn := db.Begin()
	if err := tb.Update(ctx, txn, 0, payloadFor(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if skipped, err := db.Checkpoint(ctx); err != nil || skipped != 0 {
		t.Fatalf("checkpoint without WAL: skipped=%d err=%v", skipped, err)
	}
}

func TestDeleteAbortKeepsIndexEntry(t *testing.T) {
	db := newTestDB(t, true)
	tb, _ := db.CreateTable(1, "kv", testTupleSize)
	ctx := newCtx(42)
	tb.Load(ctx, 2, func(i uint64, p []byte) uint64 { p[9] = 1; return i })

	txn := db.Begin()
	if err := tb.Delete(ctx, txn, 1); err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	// The aborted delete must leave the row fully readable.
	check := db.Begin()
	buf := make([]byte, testTupleSize)
	if err := tb.Read(ctx, check, 1, buf); err != nil {
		t.Fatalf("aborted delete removed the row: %v", err)
	}
	if buf[9] != 1 {
		t.Fatalf("row content corrupted: %d", buf[9])
	}
	check.Commit(ctx)
}

func TestDeleteThenReinsert(t *testing.T) {
	db := newTestDB(t, true)
	tb, _ := db.CreateTable(1, "kv", testTupleSize)
	ctx := newCtx(43)
	tb.Load(ctx, 2, func(i uint64, p []byte) uint64 { p[9] = 1; return i })

	txn := db.Begin()
	if err := tb.Delete(ctx, txn, 0); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	txn = db.Begin()
	if err := tb.Insert(ctx, txn, 0, payloadFor(0, 5)); err != nil {
		t.Fatalf("re-insert of deleted key: %v", err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	check := db.Begin()
	buf := make([]byte, testTupleSize)
	if err := tb.Read(ctx, check, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[9] != 5 {
		t.Fatalf("re-inserted row has version %d", buf[9])
	}
	check.Commit(ctx)
}

func TestUpdateMissingKey(t *testing.T) {
	db := newTestDB(t, false)
	tb, _ := db.CreateTable(1, "kv", testTupleSize)
	ctx := newCtx(44)
	txn := db.Begin()
	if err := tb.Update(ctx, txn, 7, payloadFor(7, 1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update of missing key: %v", err)
	}
	if err := tb.Delete(ctx, txn, 7); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete of missing key: %v", err)
	}
	txn.Commit(ctx)
}

func TestWrongPayloadSizes(t *testing.T) {
	db := newTestDB(t, false)
	tb, _ := db.CreateTable(1, "kv", testTupleSize)
	ctx := newCtx(45)
	txn := db.Begin()
	if err := tb.Insert(ctx, txn, 1, make([]byte, 3)); err == nil {
		t.Fatal("short insert accepted")
	}
	if err := tb.Insert(ctx, txn, 1, payloadFor(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Update(ctx, txn, 1, make([]byte, 3)); err == nil {
		t.Fatal("short update accepted")
	}
	buf := make([]byte, 3)
	if err := tb.Read(ctx, txn, 1, buf); err == nil {
		t.Fatal("short read buffer accepted")
	}
	txn.Commit(ctx)
}

// TestGCRunsAutomatically: commits reclaim the version store as they go —
// no option, no checkpoint — so a hot key's chain stays within a couple of
// reclaim batches (≈1 k retired writes each) however long it is rewritten;
// a transaction that can still read the old versions holds them back, and
// its end releases them.
func TestGCRunsAutomatically(t *testing.T) {
	bm, err := core.New(core.Config{
		DRAMBytes: 8 * core.PageSize, NVMBytes: 16 * core.PageSize,
		Policy: policy.SpitfireLazy,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{BM: bm})
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := db.CreateTable(1, "kv", testTupleSize)
	ctx := newCtx(46)
	tb.Load(ctx, 1, func(i uint64, p []byte) uint64 { return i })
	const updates = 8192
	rewrite := func() (peak int) {
		for i := 0; i < updates; i++ {
			txn := db.Begin()
			if err := tb.Update(ctx, txn, 0, payloadFor(0, byte(i))); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			peak = max(peak, db.tm.Retained())
		}
		return peak
	}
	if peak := rewrite(); peak > updates/4 {
		t.Fatalf("%d versions retained at the peak of %d updates of one key with no reader", peak, updates)
	}

	reader := db.Begin()
	buf := make([]byte, testTupleSize)
	if err := tb.Read(ctx, reader, 0, buf); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), buf...)
	if peak := rewrite(); peak < updates {
		t.Fatalf("only %d versions retained while a reader older than %d updates is active", peak, updates)
	}
	if err := tb.Read(ctx, reader, 0, buf); err != nil || !bytes.Equal(buf, want) {
		t.Fatalf("the reader's snapshot changed under it (err %v)", err)
	}
	reader.Commit(ctx)
	if peak := rewrite(); db.tm.Retained() > updates/4 {
		t.Fatalf("%d versions still retained (peak %d) %d updates after the reader finished", db.tm.Retained(), peak, updates)
	}
}
