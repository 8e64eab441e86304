package engine

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

// TestQuickKVModel runs random single-threaded KV transactions — put,
// delete, get and scan in any order on a small keyspace, so one transaction
// routinely deletes and re-puts (or puts and deletes) the same key — with a
// random commit/abort decision per transaction, against a map oracle. Every
// get and scan must agree with the transaction's own view (committed state
// overlaid with its pending writes), and after every boundary a fresh
// transaction must see exactly the committed state. Half the writes are
// followed at once, inside the writing transaction, by a bounded scan that
// starts at the key just put or deleted.
func TestQuickKVModel(t *testing.T) {
	type op struct {
		Kind  uint8 // put / delete / either followed by a bounded scan / check everything
		Key   uint8
		Val   uint8
		Abort bool // whether the enclosing txn aborts
		Split bool // close the current txn and start a new one
	}
	const keys = 8
	value := func(v uint8) []byte { return bytes.Repeat([]byte{v}, int(v%5)) }

	f := func(ops []op) (ok bool) {
		db, kv := newTestKV(t)
		ctx := newCtx(11)
		fail := func(format string, args ...any) bool {
			t.Errorf(format, args...)
			return false
		}

		committed := map[uint64][]byte{}
		pending := map[uint64][]byte{} // this txn's writes; nil = deleted
		view := func(k uint64) ([]byte, bool) {
			if v, written := pending[k]; written {
				return v, v != nil
			}
			v, ok := committed[k]
			return v, ok
		}
		// checkAll compares every key and a full scan against the view.
		checkAll := func(txn *Txn, when string) bool {
			var want []string
			for k := uint64(0); k < keys; k++ {
				wv, wok := view(k)
				got, err := kv.Get(ctx, txn, k)
				switch {
				case wok && err != nil:
					return fail("%s: get %d: %v, want %q", when, k, err, wv)
				case wok && !bytes.Equal(got, wv):
					return fail("%s: get %d = %q, want %q", when, k, got, wv)
				case !wok && !errors.Is(err, ErrNotFound):
					return fail("%s: get %d = %q, %v; want ErrNotFound", when, k, got, err)
				}
				if wok {
					want = append(want, fmt.Sprintf("%d=%x", k, wv))
				}
			}
			var seen []string
			err := kv.Scan(ctx, txn, 0, 0, func(k uint64, v []byte) bool {
				seen = append(seen, fmt.Sprintf("%d=%x", k, v))
				return true
			})
			if err != nil {
				return fail("%s: scan: %v", when, err)
			}
			if !sort.StringsAreSorted(seen) || fmt.Sprint(seen) != fmt.Sprint(want) {
				return fail("%s: scan = %v, want %v", when, seen, want)
			}
			return true
		}

		// checkScan compares a scan of at most limit rows from key from
		// against the view.
		checkScan := func(txn *Txn, from uint64, limit int, when string) bool {
			var want, seen []string
			for k := from; k < keys && len(want) < limit; k++ {
				if wv, wok := view(k); wok {
					want = append(want, fmt.Sprintf("%d=%x", k, wv))
				}
			}
			err := kv.Scan(ctx, txn, from, limit, func(k uint64, v []byte) bool {
				seen = append(seen, fmt.Sprintf("%d=%x", k, v))
				return true
			})
			if err != nil {
				return fail("%s: scan from %d limit %d: %v", when, from, limit, err)
			}
			if fmt.Sprint(seen) != fmt.Sprint(want) {
				return fail("%s: scan from %d limit %d = %v, want %v", when, from, limit, seen, want)
			}
			return true
		}

		txn := db.Begin()
		aborts := false
		closeTxn := func() bool {
			if aborts {
				if err := txn.Abort(ctx); err != nil {
					return fail("abort: %v", err)
				}
			} else {
				if err := txn.Commit(ctx); err != nil {
					return fail("commit: %v", err)
				}
				for k, v := range pending {
					if v == nil {
						delete(committed, k)
					} else {
						committed[k] = v
					}
				}
			}
			pending = map[uint64][]byte{}
			txn, aborts = db.Begin(), false
			return checkAll(txn, "after boundary")
		}

		for i, o := range ops {
			k := uint64(o.Key % keys)
			aborts = aborts || o.Abort
			switch kind := o.Kind % 6; kind {
			case 0, 2:
				v := value(o.Val)
				if err := kv.Put(ctx, txn, k, v); err != nil {
					return fail("op %d: put %d: %v", i, k, err)
				}
				pending[k] = v
				if kind == 2 && !checkScan(txn, k, 1+int(o.Val%4), fmt.Sprintf("op %d: after put %d", i, k)) {
					return false
				}
			case 1, 3:
				_, exists := view(k)
				err := kv.Delete(ctx, txn, k)
				if exists && err != nil {
					return fail("op %d: delete %d: %v", i, k, err)
				}
				if !exists && !errors.Is(err, ErrNotFound) {
					return fail("op %d: delete of missing %d: %v, want ErrNotFound", i, k, err)
				}
				if exists {
					pending[k] = nil
				}
				if kind == 3 && !checkScan(txn, k, 1+int(o.Val%4), fmt.Sprintf("op %d: after delete %d", i, k)) {
					return false
				}
			default:
				if !checkAll(txn, fmt.Sprintf("op %d", i)) {
					return false
				}
			}
			if o.Split && !closeTxn() {
				return false
			}
		}
		return closeTxn()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
