package engine

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func newTestKV(t *testing.T) (*DB, *KV) {
	t.Helper()
	db := newTestDB(t, true)
	kv, err := OpenKV(db, 7, "kv", 64)
	if err != nil {
		t.Fatal(err)
	}
	return db, kv
}

// TestKVRoundtrip: put/get/overwrite/delete with variable-length values,
// including the empty value and the max-size value.
func TestKVRoundtrip(t *testing.T) {
	db, kv := newTestKV(t)
	ctx := newCtx(1)

	vals := map[uint64][]byte{
		1: []byte("hello"),
		2: {},
		3: bytes.Repeat([]byte{0xab}, kv.MaxValue()),
	}
	txn := db.Begin()
	for k, v := range vals {
		if err := kv.Put(ctx, txn, k, v); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	txn = db.Begin()
	for k, want := range vals {
		got, err := kv.Get(ctx, txn, k)
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("get %d = %q, want %q", k, got, want)
		}
	}
	if _, err := kv.Get(ctx, txn, 99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get missing key error = %v, want ErrNotFound", err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// Overwrite via the update path, then delete.
	txn = db.Begin()
	if err := kv.Put(ctx, txn, 1, []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Delete(ctx, txn, 2); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	txn = db.Begin()
	got, err := kv.Get(ctx, txn, 1)
	if err != nil || string(got) != "rewritten" {
		t.Fatalf("get after overwrite = %q, %v", got, err)
	}
	if _, err := kv.Get(ctx, txn, 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get deleted key error = %v, want ErrNotFound", err)
	}
	if err := kv.Delete(ctx, txn, 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing key error = %v, want ErrNotFound", err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestKVValueTooLarge: oversized values are rejected before touching pages.
func TestKVValueTooLarge(t *testing.T) {
	db, kv := newTestKV(t)
	ctx := newCtx(2)
	txn := db.Begin()
	defer txn.Commit(ctx)
	if err := kv.Put(ctx, txn, 1, make([]byte, kv.MaxValue()+1)); err == nil {
		t.Fatal("oversized put succeeded")
	}
	if _, err := OpenKV(db, 8, "bad", 0); err == nil {
		t.Fatal("OpenKV with maxVal 0 succeeded")
	}
}

// TestKVScan: scans respect from/limit and decode the stored lengths.
func TestKVScan(t *testing.T) {
	db, kv := newTestKV(t)
	ctx := newCtx(3)
	txn := db.Begin()
	for k := uint64(0); k < 10; k++ {
		if err := kv.Put(ctx, txn, k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	txn = db.Begin()
	defer txn.Commit(ctx)
	var keys []uint64
	err := kv.Scan(ctx, txn, 4, 3, func(k uint64, v []byte) bool {
		if string(v) != fmt.Sprintf("v%d", k) {
			t.Errorf("scan value for %d = %q", k, v)
		}
		keys = append(keys, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys[0] != 4 || keys[2] != 6 {
		t.Fatalf("scan keys = %v, want [4 5 6]", keys)
	}
}

// TestKVConcurrentUpserts: concurrent first-writes of the same keys must
// never produce duplicate-key failures — losers see ErrConflict (retryable)
// or win cleanly. Every key holds exactly one committed value at the end.
//
// A conflict lasts as long as the winner's transaction stays open
// (TestKVWaiterOutlastsOpenWriter), and with more goroutines than CPUs the
// winner can lose its CPU mid-transaction for longer than a thousand
// back-to-back retries take (about 1-3 ms), so the retry loop backs off the
// way a client does (conflictBackoff). A thousand backed-off attempts span
// about 0.2 s, which a transaction that never commits still exhausts.
func TestKVConcurrentUpserts(t *testing.T) {
	db, kv := newTestKV(t)
	const workers, keys = 8, 16

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := newCtx(uint64(100 + w))
			for k := uint64(0); k < keys; k++ {
				val := []byte(fmt.Sprintf("w%d", w))
				for attempt := 0; ; attempt++ {
					txn := db.Begin()
					err := kv.Put(ctx, txn, k, val)
					if err == nil {
						err = txn.Commit(ctx)
						if err == nil {
							break
						}
					} else {
						if aerr := txn.Abort(ctx); aerr != nil {
							errs <- aerr
							return
						}
					}
					if !errors.Is(err, ErrConflict) {
						errs <- fmt.Errorf("worker %d key %d: %v", w, k, err)
						return
					}
					if attempt > 1000 {
						errs <- fmt.Errorf("worker %d key %d: livelock", w, k)
						return
					}
					conflictBackoff(attempt)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ctx := newCtx(999)
	txn := db.Begin()
	defer txn.Commit(ctx)
	for k := uint64(0); k < keys; k++ {
		v, err := kv.Get(ctx, txn, k)
		if err != nil {
			t.Fatalf("get %d after concurrent upserts: %v", k, err)
		}
		if len(v) < 2 || v[0] != 'w' {
			t.Fatalf("get %d = %q, want one worker's value", k, v)
		}
	}
}

// conflictBackoff is what a client does between conflict retries: yield,
// and once that has not helped a few times (the winner's thread is off the
// CPU, not merely unscheduled) sleep a little longer each time.
func conflictBackoff(try int) {
	if try < 4 {
		runtime.Gosched()
		return
	}
	time.Sleep(time.Duration(min(try, 20)) * 10 * time.Microsecond)
}

// TestKVWaiterOutlastsOpenWriter holds one writer open while a waiter
// retries the same upsert many times: every attempt conflicts, however many
// there are, and the first attempt after the writer commits succeeds. So
// the number of retries an upsert needs measures how long the winner stays
// open, not engine progress.
func TestKVWaiterOutlastsOpenWriter(t *testing.T) {
	db, kv := newTestKV(t)
	writer, waiter := newCtx(1), newCtx(2)
	open := db.Begin()
	if err := kv.Put(writer, open, 5, []byte("first")); err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 5000; attempt++ {
		txn := db.Begin()
		err := kv.Put(waiter, txn, 5, []byte("second"))
		if aerr := txn.Abort(waiter); aerr != nil {
			t.Fatal(aerr)
		}
		if !errors.Is(err, ErrConflict) {
			t.Fatalf("attempt %d against an open writer: %v, want ErrConflict", attempt, err)
		}
	}
	if err := open.Commit(writer); err != nil {
		t.Fatal(err)
	}
	txn := db.Begin()
	if err := kv.Put(waiter, txn, 5, []byte("second")); err != nil {
		t.Fatalf("upsert after the writer committed: %v", err)
	}
	if err := txn.Commit(waiter); err != nil {
		t.Fatal(err)
	}
	txn = db.Begin()
	defer txn.Commit(waiter)
	if v, err := kv.Get(waiter, txn, 5); err != nil || string(v) != "second" {
		t.Fatalf("get = %q, %v; want the waiter's value", v, err)
	}
}

// TestKVDeleteThenPutSameTxn: a key deleted and re-put inside one
// transaction must come back with the new value — the index still maps the
// deleted key until commit, so Put cannot decide from the raw index.
func TestKVDeleteThenPutSameTxn(t *testing.T) {
	db, kv := newTestKV(t)
	ctx := newCtx(42)
	txn := db.Begin()
	if err := kv.Put(ctx, txn, 7, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	txn = db.Begin()
	if err := kv.Delete(ctx, txn, 7); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(ctx, txn, 7, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	txn = db.Begin()
	got, err := kv.Get(ctx, txn, 7)
	if err != nil {
		t.Fatalf("key 7 after delete-then-put in one txn: %v", err)
	}
	if string(got) != "v2" {
		t.Fatalf("got %q want v2", got)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}
