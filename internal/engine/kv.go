package engine

import (
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/spitfire-db/spitfire/internal/core"
)

// kvStripes is the number of per-key upsert serialization stripes. Upserts
// on distinct stripes never contend; 256 keeps contention negligible for a
// front-end's worth of concurrent writers.
const kvStripes = 256

// KV is a variable-length-value key-value facade over a heap Table, built
// for the socket front-end (internal/server): values up to MaxValue bytes
// are stored length-prefixed inside the table's fixed-size tuples, and Put
// is an upsert whose insert-vs-update decision is serialized per key so two
// concurrent first-writes of the same key cannot both take the insert path.
//
// All operations run inside a caller-owned transaction and inherit the
// engine's MVTO semantics: concurrent writers of the same key lose with
// ErrConflict and should abort and retry.
type KV struct {
	db     *DB
	tb     *Table
	maxVal int

	// stripes serialize the index-probe→Insert window of Put per key. MVTO
	// already rejects write-write races on existing tuples; the stripe only
	// closes the gap where two inserts of a missing key both pass the
	// duplicate check.
	stripes [kvStripes]sync.Mutex
}

// OpenKV creates the backing table (id/name as given) and returns the KV
// facade over it. maxVal bounds the value size; the tuple size is
// 2+maxVal bytes (a little-endian length prefix plus the padded value) and
// must fit a page like any other tuple.
func OpenKV(db *DB, tableID uint32, name string, maxVal int) (*KV, error) {
	if maxVal <= 0 || maxVal > 0xffff {
		return nil, fmt.Errorf("engine: kv max value size %d out of range [1, 65535]", maxVal)
	}
	tb, err := db.CreateTable(tableID, name, 2+maxVal)
	if err != nil {
		return nil, err
	}
	return &KV{db: db, tb: tb, maxVal: maxVal}, nil
}

// Table exposes the backing heap table.
func (kv *KV) Table() *Table { return kv.tb }

// MaxValue reports the largest storable value size in bytes.
func (kv *KV) MaxValue() int { return kv.maxVal }

// Get returns the value under key, honoring the transaction's snapshot.
// Missing keys report ErrNotFound.
func (kv *KV) Get(ctx *core.Ctx, txn *Txn, key uint64) ([]byte, error) {
	buf := make([]byte, 2+kv.maxVal)
	if err := kv.tb.Read(ctx, txn, key, buf); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint16(buf))
	if n > kv.maxVal {
		return nil, fmt.Errorf("engine: kv key %d: corrupt length prefix %d (max %d)", key, n, kv.maxVal)
	}
	return buf[2 : 2+n : 2+n], nil
}

// Put upserts key → val: an update when the key is visible to txn, an insert
// when it is not — including when txn itself deleted it earlier. Concurrent
// writers of an existing key race under MVTO and the loser gets ErrConflict.
func (kv *KV) Put(ctx *core.Ctx, txn *Txn, key uint64, val []byte) error {
	if len(val) > kv.maxVal {
		return fmt.Errorf("engine: kv value is %d bytes, max %d", len(val), kv.maxVal)
	}
	// Compose the tuple — length prefix, value, zero padding — directly in
	// the worker's slot staging buffer: the only copy of val the put makes.
	after := ctx.TupleBuf(slotSize(kv.tb.tupleSize))
	payload := slotPayload(after)
	binary.LittleEndian.PutUint16(payload, uint16(len(val)))
	clear(payload[2+copy(payload[2:], val):])

	mu := &kv.stripes[key%kvStripes]
	mu.Lock()
	defer mu.Unlock()
	return kv.tb.upsertSlot(ctx, txn, key, after)
}

// Delete removes key. Missing keys report ErrNotFound.
func (kv *KV) Delete(ctx *core.Ctx, txn *Txn, key uint64) error {
	return kv.tb.Delete(ctx, txn, key)
}

// Scan visits live entries with key >= from in key order until fn returns
// false or limit entries have been visited (limit <= 0 means unbounded).
// The value slice is only valid during the callback.
func (kv *KV) Scan(ctx *core.Ctx, txn *Txn, from uint64, limit int, fn func(key uint64, val []byte) bool) error {
	seen := 0
	return kv.tb.Scan(ctx, txn, from, func(key uint64, payload []byte) bool {
		n := int(binary.LittleEndian.Uint16(payload))
		if n > kv.maxVal {
			n = kv.maxVal
		}
		seen++
		if !fn(key, payload[2:2+n]) {
			return false
		}
		return limit <= 0 || seen < limit
	})
}
