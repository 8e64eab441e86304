package engine

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/testutil"
)

// loadKV commits keys [0, n) with a value derived from key and version.
func loadKV(t *testing.T, db *DB, kv *KV, ctx *core.Ctx, n uint64) {
	t.Helper()
	txn := db.Begin()
	for k := uint64(0); k < n; k++ {
		if err := kv.Put(ctx, txn, k, kvValue(k, 0)); err != nil {
			t.Fatalf("load put %d: %v", k, err)
		}
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

func kvValue(key uint64, version byte) []byte {
	return bytes.Repeat([]byte{byte(key), version}, 24)
}

// kvSlotsPerPage is how many rows of newTestKV's table share a page, so
// tests can place keys on either side of a page boundary (keys load in slot
// order).
func kvSlotsPerPage(kv *KV) uint64 { return uint64(kv.Table().slots) }

// TestKVAllocationBudgets pins what one transaction may allocate on a warmed
// KV with a WAL, so tuple images cannot quietly become garbage again. What
// is left: the Txn, the page handle, the value returned by Get or the scan's
// row buffer, and — for a put — the before-image with its version-store
// entry, which outlive the call by design. Each budget is one above that.
func TestKVAllocationBudgets(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db, kv := newTestKV(t)
	ctx := newCtx(3)
	const keys = 400
	loadKV(t, db, kv, ctx, keys)
	val := kvValue(1, 1)

	var key uint64
	next := func() uint64 { key = (key + 7) % (keys - 16); return key }
	ops := []struct {
		name   string
		budget float64
		op     func(txn *Txn) error
	}{
		{"get", 4, func(txn *Txn) error {
			_, err := kv.Get(ctx, txn, next())
			return err
		}},
		{"put", 5, func(txn *Txn) error {
			return kv.Put(ctx, txn, next(), val)
		}},
		{"scan16", 4, func(txn *Txn) error {
			return kv.Scan(ctx, txn, next(), 16, func(uint64, []byte) bool { return true })
		}},
	}
	for _, o := range ops {
		run := func() {
			txn := db.Begin()
			if err := o.op(txn); err != nil {
				t.Fatalf("%s: %v", o.name, err)
			}
			if err := txn.Commit(ctx); err != nil {
				t.Fatalf("%s: commit: %v", o.name, err)
			}
		}
		for i := 0; i < 2*keys; i++ { // warm: every page resident, scratch grown
			run()
		}
		if n := testing.AllocsPerRun(500, run); n > o.budget {
			t.Errorf("one %s transaction allocates %.0f objects, budget %.0f", o.name, n, o.budget)
		}
	}
}

// newPinTestKV is newTestKV over a DRAM-only pool of four frames, small
// enough that requireNoPins can claim every frame at once.
func newPinTestKV(t *testing.T) (*DB, *KV) {
	t.Helper()
	bm, err := core.New(core.Config{DRAMBytes: 4 * core.PageSize, Policy: policy.SpitfireLazy})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{BM: bm})
	if err != nil {
		t.Fatal(err)
	}
	kv, err := OpenKV(db, 7, "kv", 64)
	if err != nil {
		t.Fatal(err)
	}
	return db, kv
}

// requireNoPins proves a scan left no page pinned: the structural check is
// clean, and as many fresh pages as the pool has frames can be pinned all at
// once, which needs every frame evictable.
func requireNoPins(t *testing.T, db *DB, ctx *core.Ctx) {
	t.Helper()
	bm := db.BM()
	if err := bm.CheckConsistency(); err != nil {
		t.Fatalf("after scan: %v", err)
	}
	frames := bm.DRAMFrames()
	for i := 0; i < frames; i++ {
		_, h, err := bm.NewPage(ctx)
		if err != nil {
			t.Fatalf("pinning frame %d of %d after the scan: %v", i+1, frames, err)
		}
		defer h.Release()
	}
}

// TestScanFetchesEachPageOnce: 16 consecutive keys sit on one page, or on
// two when the range crosses a boundary, and the scan fetches exactly those.
func TestScanFetchesEachPageOnce(t *testing.T) {
	db, kv := newPinTestKV(t)
	ctx := newCtx(5)
	per := kvSlotsPerPage(kv)
	loadKV(t, db, kv, ctx, 3*per)

	fetches := func() int64 {
		s := db.BM().Stats()
		return s.HitDRAM + s.HitMini + s.HitNVM + s.MissSSD
	}
	for _, c := range []struct {
		name  string
		from  uint64
		pages int64
	}{
		{"inside one page", 10, 1},
		{"across a page boundary", per - 8, 2},
	} {
		txn := db.Begin()
		before := fetches()
		want := c.from
		err := kv.Scan(ctx, txn, c.from, 16, func(k uint64, v []byte) bool {
			if k != want || !bytes.Equal(v, kvValue(k, 0)) {
				t.Errorf("%s: row %d = %x, want key %d", c.name, k, v, want)
			}
			want++
			return true
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := fetches() - before; want != c.from+16 || got != c.pages {
			t.Errorf("%s: %d rows for %d page fetches, want 16 rows for %d", c.name, want-c.from, got, c.pages)
		}
		if err := txn.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	requireNoPins(t, db, ctx)
}

// TestScanReleasesItsPinHoweverItEnds ends scans every way a scan can end —
// exhaustion past a page boundary, a callback that stops, an invisible row,
// a conflict — and requires each to leave nothing pinned.
func TestScanReleasesItsPinHoweverItEnds(t *testing.T) {
	t.Run("crosses pages to the end", func(t *testing.T) {
		db, kv := newPinTestKV(t)
		ctx := newCtx(7)
		n := 2*kvSlotsPerPage(kv) + 5
		loadKV(t, db, kv, ctx, n)
		txn := db.Begin()
		rows := uint64(0)
		if err := kv.Scan(ctx, txn, 0, 0, func(uint64, []byte) bool { rows++; return true }); err != nil {
			t.Fatal(err)
		}
		if rows != n {
			t.Fatalf("scan saw %d rows, want %d", rows, n)
		}
		if err := txn.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		requireNoPins(t, db, ctx)
	})

	t.Run("callback stops early", func(t *testing.T) {
		db, kv := newPinTestKV(t)
		ctx := newCtx(7)
		loadKV(t, db, kv, ctx, 64)
		txn := db.Begin()
		rows := 0
		if err := kv.Scan(ctx, txn, 3, 0, func(uint64, []byte) bool { rows++; return rows < 5 }); err != nil {
			t.Fatal(err)
		}
		if rows != 5 {
			t.Fatalf("scan saw %d rows after the callback stopped it at 5", rows)
		}
		if err := txn.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		requireNoPins(t, db, ctx)
	})

	t.Run("row invisible to the snapshot", func(t *testing.T) {
		db, kv := newPinTestKV(t)
		ctx := newCtx(7)
		loadKV(t, db, kv, ctx, 32)
		// Key 40 is inserted after the reader's snapshot and key 5 deleted
		// before it: the scan must skip both and keep its pin discipline.
		txn := db.Begin()
		if err := kv.Delete(ctx, txn, 5); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		reader := db.Begin()
		txn = db.Begin()
		if err := kv.Put(ctx, txn, 40, kvValue(40, 1)); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		var seen []uint64
		if err := kv.Scan(ctx, reader, 0, 0, func(k uint64, _ []byte) bool { seen = append(seen, k); return true }); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 31 || seen[5] != 6 || seen[30] != 31 {
			t.Fatalf("scan saw %v, want 0..31 without 5 and without the later insert 40", seen)
		}
		if err := reader.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		requireNoPins(t, db, ctx)
	})

	t.Run("row conflicts", func(t *testing.T) {
		db, kv := newPinTestKV(t)
		ctx := newCtx(7)
		loadKV(t, db, kv, ctx, 32)
		writer := db.Begin() // older, in flight on key 9
		reader := db.Begin()
		if err := kv.Put(ctx, writer, 9, kvValue(9, 1)); err != nil {
			t.Fatal(err)
		}
		rows := 0
		err := kv.Scan(ctx, reader, 0, 0, func(uint64, []byte) bool { rows++; return true })
		if !errors.Is(err, ErrConflict) || rows != 9 {
			t.Fatalf("scan over an in-flight older write: %d rows, %v; want 9 rows then ErrConflict", rows, err)
		}
		if err := reader.Abort(ctx); err != nil {
			t.Fatal(err)
		}
		if err := writer.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		requireNoPins(t, db, ctx)
	})
}

// TestBeforeImageSurvivesEngineBufferReuse: the version store keeps the
// before-image the engine handed over, and the engine composes its next
// after-image in the same per-worker staging buffer it used for the last.
// Overwriting in the same transaction (which rewrites that buffer and the
// page) while an older snapshot keeps reading must serve the original value
// throughout, and aborting must restore it. Run under -race: a before-image
// aliasing anything the engine writes again shows up as a data race here.
func TestBeforeImageSurvivesEngineBufferReuse(t *testing.T) {
	db, kv := newTestKV(t)
	ctx := newCtx(9)
	loadKV(t, db, kv, ctx, 8)
	const key = 3
	original := kvValue(key, 0)

	older := db.Begin()
	writer := db.Begin()
	if err := kv.Put(ctx, writer, key, kvValue(key, 1)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the older snapshot, on a worker context of its own
		defer wg.Done()
		rctx := newCtx(10)
		for {
			got, err := kv.Get(rctx, older, key)
			if err != nil || !bytes.Equal(got, original) {
				t.Errorf("older snapshot read %x, %v; want the original %x", got, err, original)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for v := byte(2); v < 200; v++ {
		// Same transaction, same tuple, and other tuples in between: every
		// put recomposes the staging buffer and rewrites the page.
		if err := kv.Put(ctx, writer, key, kvValue(key, v)); err != nil {
			t.Fatal(err)
		}
		if err := kv.Put(ctx, writer, key+1, kvValue(key+1, v)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if err := writer.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if err := older.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	txn := db.Begin()
	for k := uint64(key); k <= key+1; k++ {
		got, err := kv.Get(ctx, txn, k)
		if err != nil || !bytes.Equal(got, kvValue(k, 0)) {
			t.Fatalf("after abort key %d = %x, %v; want the first image %x", k, got, err, kvValue(k, 0))
		}
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(fmt.Errorf("commit after abort: %w", err))
	}
}
