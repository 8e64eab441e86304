package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/ssd"
	"github.com/spitfire-db/spitfire/internal/wal"
	"github.com/spitfire-db/spitfire/internal/zipf"
)

const testTupleSize = 100

func newTestDB(t *testing.T, withWAL bool) *DB {
	t.Helper()
	bm, err := core.New(core.Config{
		DRAMBytes: 8 * core.PageSize,
		NVMBytes:  32 * core.PageSize,
		Policy:    policy.SpitfireLazy,
	})
	if err != nil {
		t.Fatal(err)
	}
	var w *wal.Manager
	if withWAL {
		w, err = wal.New(wal.Options{
			Buffer: pmem.New(pmem.Options{Size: 1 << 18}),
			Store:  wal.NewMemLog(nil),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(Options{BM: bm, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func newCtx(seed uint64) *core.Ctx { return core.NewCtx(seed) }

func payloadFor(key uint64, version byte) []byte {
	p := make([]byte, testTupleSize)
	binary.LittleEndian.PutUint64(p, key)
	p[9] = version
	return p
}

func TestInsertReadUpdateDelete(t *testing.T) {
	db := newTestDB(t, true)
	tb, err := db.CreateTable(1, "kv", testTupleSize)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(1)

	txn := db.Begin()
	if err := tb.Insert(ctx, txn, 42, payloadFor(42, 1)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	txn = db.Begin()
	buf := make([]byte, testTupleSize)
	if err := tb.Read(ctx, txn, 42, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payloadFor(42, 1)) {
		t.Fatal("read returned wrong payload")
	}
	if err := tb.Update(ctx, txn, 42, payloadFor(42, 2)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	txn = db.Begin()
	if err := tb.Read(ctx, txn, 42, buf); err != nil {
		t.Fatal(err)
	}
	if buf[9] != 2 {
		t.Fatalf("update lost: version byte %d", buf[9])
	}
	if err := tb.Delete(ctx, txn, 42); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	txn = db.Begin()
	if err := tb.Read(ctx, txn, 42, buf); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after delete: %v", err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateInsertFails(t *testing.T) {
	db := newTestDB(t, false)
	tb, _ := db.CreateTable(1, "kv", testTupleSize)
	ctx := newCtx(2)
	txn := db.Begin()
	if err := tb.Insert(ctx, txn, 7, payloadFor(7, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(ctx, txn, 7, payloadFor(7, 2)); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	txn.Commit(ctx)
}

func TestAbortRollsBack(t *testing.T) {
	db := newTestDB(t, true)
	tb, _ := db.CreateTable(1, "kv", testTupleSize)
	ctx := newCtx(3)

	txn := db.Begin()
	if err := tb.Insert(ctx, txn, 1, payloadFor(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// Update then abort: the old value must come back and the aborted
	// insert must vanish from the index.
	txn = db.Begin()
	if err := tb.Update(ctx, txn, 1, payloadFor(1, 9)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(ctx, txn, 2, payloadFor(2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(ctx); err != nil {
		t.Fatal(err)
	}

	txn = db.Begin()
	buf := make([]byte, testTupleSize)
	if err := tb.Read(ctx, txn, 1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[9] != 1 {
		t.Fatalf("aborted update visible: version %d", buf[9])
	}
	if err := tb.Read(ctx, txn, 2, buf); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aborted insert visible: %v", err)
	}
	txn.Commit(ctx)
}

func TestSnapshotReadSeesOldVersion(t *testing.T) {
	db := newTestDB(t, false)
	tb, _ := db.CreateTable(1, "kv", testTupleSize)
	ctx := newCtx(4)

	setup := db.Begin()
	if err := tb.Insert(ctx, setup, 5, payloadFor(5, 1)); err != nil {
		t.Fatal(err)
	}
	setup.Commit(ctx)

	older := db.Begin() // snapshot before the update below
	writer := db.Begin()
	if err := tb.Update(ctx, writer, 5, payloadFor(5, 2)); err != nil {
		t.Fatal(err)
	}
	writer.Commit(ctx)

	buf := make([]byte, testTupleSize)
	if err := tb.Read(ctx, older, 5, buf); err != nil {
		t.Fatal(err)
	}
	if buf[9] != 1 {
		t.Fatalf("older snapshot saw version %d, want 1", buf[9])
	}
	older.Commit(ctx)

	fresh := db.Begin()
	if err := tb.Read(ctx, fresh, 5, buf); err != nil {
		t.Fatal(err)
	}
	if buf[9] != 2 {
		t.Fatalf("fresh snapshot saw version %d, want 2", buf[9])
	}
	fresh.Commit(ctx)
}

func TestLoadBulk(t *testing.T) {
	db := newTestDB(t, false)
	tb, _ := db.CreateTable(1, "kv", testTupleSize)
	ctx := newCtx(5)
	const rows = 100
	err := tb.Load(ctx, rows, func(i uint64, p []byte) uint64 {
		binary.LittleEndian.PutUint64(p, i)
		p[9] = 1
		return i
	})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Index().Len() != rows {
		t.Fatalf("index holds %d keys, want %d", tb.Index().Len(), rows)
	}
	txn := db.Begin()
	buf := make([]byte, testTupleSize)
	for k := uint64(0); k < rows; k++ {
		if err := tb.Read(ctx, txn, k, buf); err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		if binary.LittleEndian.Uint64(buf) != k {
			t.Fatalf("key %d read wrong payload", k)
		}
	}
	txn.Commit(ctx)
	// 100 rows x 116-byte slots at 16 slots/page... actually
	// (16384-64)/116 = 140 slots/page -> 1 page.
	if got := len(tb.Pages()); got != 1 {
		t.Fatalf("loader used %d pages", got)
	}
}

func TestScanKeys(t *testing.T) {
	db := newTestDB(t, false)
	tb, _ := db.CreateTable(1, "kv", testTupleSize)
	ctx := newCtx(6)
	tb.Load(ctx, 50, func(i uint64, p []byte) uint64 { return i * 2 })
	var got []uint64
	tb.ScanKeys(10, func(k uint64, _ RID) bool {
		if k >= 20 {
			return false
		}
		got = append(got, k)
		return true
	})
	want := []uint64{10, 12, 14, 16, 18}
	if len(got) != len(want) {
		t.Fatalf("scan = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan = %v, want %v", got, want)
		}
	}
}

func TestConcurrentTransactions(t *testing.T) {
	db := newTestDB(t, true)
	tb, _ := db.CreateTable(1, "kv", testTupleSize)
	loadCtx := newCtx(7)
	const keys = 64
	tb.Load(loadCtx, keys, func(i uint64, p []byte) uint64 {
		binary.LittleEndian.PutUint64(p, 0)
		return i
	})

	const workers, opsEach = 8, 300
	var committed atomic64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := newCtx(uint64(w) + 100)
			rng := zipf.NewRand(uint64(w) * 31)
			buf := make([]byte, testTupleSize)
			for i := 0; i < opsEach; i++ {
				key := rng.Uint64n(keys)
				txn := db.Begin()
				if err := tb.Read(ctx, txn, key, buf); err != nil {
					txn.Abort(ctx)
					continue
				}
				v := binary.LittleEndian.Uint64(buf)
				binary.LittleEndian.PutUint64(buf, v+1)
				if err := tb.Update(ctx, txn, key, buf); err != nil {
					txn.Abort(ctx)
					continue
				}
				if err := txn.Commit(ctx); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				committed.inc()
			}
		}(w)
	}
	wg.Wait()

	// Sum of counters must equal the number of committed increments.
	ctx := newCtx(999)
	txn := db.Begin()
	var sum uint64
	buf := make([]byte, testTupleSize)
	for k := uint64(0); k < keys; k++ {
		if err := tb.Read(ctx, txn, k, buf); err != nil {
			t.Fatal(err)
		}
		sum += binary.LittleEndian.Uint64(buf)
	}
	txn.Commit(ctx)
	if sum != committed.load() {
		t.Fatalf("counter sum %d != committed increments %d", sum, committed.load())
	}
	commits, aborts := db.TxnStats()
	t.Logf("commits=%d aborts=%d", commits, aborts)
}

type atomic64 struct {
	mu sync.Mutex
	v  uint64
}

func (a *atomic64) inc()         { a.mu.Lock(); a.v++; a.mu.Unlock() }
func (a *atomic64) load() uint64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

func TestCrashRecoveryEndToEnd(t *testing.T) {
	// Build a database with shared crash-tracked NVM arenas, run committed
	// and uncommitted work, crash, recover, and verify exactly the
	// committed state survives.
	dataArena := pmem.New(pmem.Options{Size: 32 * (core.PageSize + 64), TrackCrashes: true})
	logArena := pmem.New(pmem.Options{Size: 1 << 18, TrackCrashes: true})
	disk := ssd.NewMem(nil)
	logStore := wal.NewMemLog(nil)

	bmCfg := core.Config{
		DRAMBytes: 8 * core.PageSize,
		NVMBytes:  dataArena.Size(),
		Policy:    policy.SpitfireLazy,
		PMem:      dataArena,
		SSD:       disk,
	}
	bm, err := core.New(bmCfg)
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
	ctx := newCtx(8)
	tb.Load(ctx, 32, func(i uint64, p []byte) uint64 {
		p[9] = 1
		return i
	})

	// Committed update on key 3.
	txn := db.Begin()
	if err := tb.Update(ctx, txn, 3, payloadFor(3, 7)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	// Committed insert of key 100.
	txn = db.Begin()
	if err := tb.Insert(ctx, txn, 100, payloadFor(100, 7)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	// Uncommitted update on key 5 — must be rolled back by recovery.
	loser := db.Begin()
	if err := tb.Update(ctx, loser, 5, payloadFor(5, 66)); err != nil {
		t.Fatal(err)
	}

	// CRASH: both arenas lose unpersisted state.
	dataArena.Crash()
	logArena.Crash()

	bm2, err := core.Recover(core.Config{
		DRAMBytes: bmCfg.DRAMBytes,
		NVMBytes:  bmCfg.NVMBytes,
		Policy:    bmCfg.Policy,
		PMem:      dataArena,
		SSD:       disk,
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
	if len(rl.Losers) != 1 {
		t.Fatalf("losers = %v, want exactly the in-flight txn", rl.Losers)
	}

	tb2 := db2.Table(1)
	buf := make([]byte, testTupleSize)
	check := db2.Begin()
	if err := tb2.Read(rctx, check, 3, buf); err != nil {
		t.Fatal(err)
	}
	if buf[9] != 7 {
		t.Fatalf("committed update lost: version %d", buf[9])
	}
	if err := tb2.Read(rctx, check, 100, buf); err != nil {
		t.Fatalf("committed insert lost: %v", err)
	}
	if err := tb2.Read(rctx, check, 5, buf); err != nil {
		t.Fatal(err)
	}
	if buf[9] == 66 {
		t.Fatal("uncommitted update survived recovery")
	}
	check.Commit(rctx)

	// The database stays usable after recovery.
	txn2 := db2.Begin()
	if err := tb2.Update(rctx, txn2, 5, payloadFor(5, 8)); err != nil {
		t.Fatal(err)
	}
	if err := txn2.Commit(rctx); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryIdempotentReplay(t *testing.T) {
	// Recover twice in a row (second crash immediately after recovery):
	// state must be identical, and since recovery ends with a checkpoint the
	// second pass replays nothing but that checkpoint's record.
	dataArena := pmem.New(pmem.Options{Size: 16 * (core.PageSize + 64), TrackCrashes: true})
	logArena := pmem.New(pmem.Options{Size: 1 << 17, TrackCrashes: true})
	disk := ssd.NewMem(nil)
	logStore := wal.NewMemLog(nil)

	mk := func() (*DB, *Table) {
		bm, err := core.New(core.Config{
			DRAMBytes: 4 * core.PageSize, NVMBytes: dataArena.Size(),
			Policy: policy.SpitfireEager, PMem: dataArena, SSD: disk,
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
		return db, tb
	}
	db, tb := mk()
	ctx := newCtx(9)
	tb.Load(ctx, 8, func(i uint64, p []byte) uint64 { p[9] = 1; return i })
	txn := db.Begin()
	if err := tb.Update(ctx, txn, 2, payloadFor(2, 5)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	recover := func() (*DB, *wal.RecoveredLog) {
		dataArena.Crash()
		logArena.Crash()
		bm2, err := core.Recover(core.Config{
			DRAMBytes: 4 * core.PageSize, NVMBytes: dataArena.Size(),
			Policy: policy.SpitfireEager, PMem: dataArena, SSD: disk,
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
		return db2, rl
	}

	db2, _ := recover()
	db3, rl := recover() // crash again right after recovery
	if len(rl.Records) != 1 || rl.Records[0].Type != wal.RecCheckpoint {
		t.Fatalf("second recovery replayed %d records, want only the first recovery's checkpoint", len(rl.Records))
	}

	for _, d := range []*DB{db2, db3} {
		rctx := NewRecoveryCtx()
		txn := d.Begin()
		buf := make([]byte, testTupleSize)
		if err := d.Table(1).Read(rctx, txn, 2, buf); err != nil {
			t.Fatal(err)
		}
		if buf[9] != 5 {
			t.Fatalf("committed version lost on replay: %d", buf[9])
		}
		txn.Commit(rctx)
	}
}
