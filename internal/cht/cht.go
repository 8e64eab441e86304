// Package cht provides a concurrent hash table with lock-free reads.
//
// It was the buffer manager's stand-in for the paper's TBB concurrent hash
// map (§5.2). Page ids are dense and never freed, so that table is now a
// dense.Directory indexed by page id; this package stays only for the
// benchmark rig's cht.get_ns probe, and goes with it.
//
// Keys are sharded across 2^k stripes, each holding a chained hash table
// whose bucket heads and chain links are atomic pointers. Get walks a
// bucket chain with plain atomic loads and never takes a lock; Put/Delete
// serialize per stripe under the stripe mutex and publish every structural
// change with atomic stores, so readers always observe a consistent chain.
// All operations are linearizable per key.
//
// Updates never mutate a published node: replacing a value splices in a
// fresh node, and a stripe resize copies every node into a new bucket array
// before swinging the stripe's table pointer. A reader that entered the old
// table keeps walking an immutable-enough snapshot (nodes it can reach are
// never relinked into the new table), so it sees every key that was present
// when it loaded the table pointer — its linearization point.
//
// One 64-bit hash addresses both levels, from disjoint bits: the low
// log2(stripes) bits pick the stripe, the bits above them pick the bucket
// inside it. (Taking both from the low bits would leave every entry of a
// stripe agreeing on the bits its table indexes by, so one chain would hold
// the whole stripe.) Chains therefore stay at about loadFactor nodes at any
// map size.
package cht

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

const defaultShardBits = 8

// stripeInitBuckets is each stripe's initial bucket count; stripes double
// their table when the entry count passes loadFactor entries per bucket.
const (
	stripeInitBuckets = 8
	loadFactor        = 4
)

// Map is a concurrent hash map from K to V.
type Map[K comparable, V any] struct {
	stripes []stripe[K, V]
	mask    uint64
	hash    func(K) uint64
}

// node is one immutable key/value pair on a bucket chain. The chain link is
// atomic so writers can splice nodes in and out under readers; key, val and
// hash (kept so a resize need not call the hash function again) are never
// written after the node is published.
type node[K comparable, V any] struct {
	key  K
	val  V
	hash uint64
	next atomic.Pointer[node[K, V]]
}

// table is one stripe's bucket array. Resizes publish a whole new table
// (with copied nodes) rather than rehashing in place.
type table[K comparable, V any] struct {
	buckets []atomic.Pointer[node[K, V]]
	shift   uint // log2(stripes): the hash bits below it picked the stripe
	mask    uint64
}

// stripe is exactly one cache line, so writers on neighboring stripes do not
// false-share mu and count.
type stripe[K comparable, V any] struct {
	mu    sync.Mutex // writers only; Get never touches it
	tab   atomic.Pointer[table[K, V]]
	count int // entries, guarded by mu
	_     [40]byte
}

// New creates a map using the given hash function with the default stripe
// count.
func New[K comparable, V any](hash func(K) uint64) *Map[K, V] {
	return NewWithShards[K, V](hash, 1<<defaultShardBits)
}

// NewWithShards creates a map with the given stripe count, which must be a
// power of two.
func NewWithShards[K comparable, V any](hash func(K) uint64, shards int) *Map[K, V] {
	if shards <= 0 || shards&(shards-1) != 0 {
		panic("cht: shard count must be a positive power of two")
	}
	m := &Map[K, V]{
		stripes: make([]stripe[K, V], shards),
		mask:    uint64(shards - 1),
		hash:    hash,
	}
	shift := uint(bits.TrailingZeros(uint(shards)))
	for i := range m.stripes {
		m.stripes[i].tab.Store(newTable[K, V](stripeInitBuckets, shift))
	}
	return m
}

func newTable[K comparable, V any](buckets int, shift uint) *table[K, V] {
	return &table[K, V]{
		buckets: make([]atomic.Pointer[node[K, V]], buckets),
		shift:   shift,
		mask:    uint64(buckets - 1),
	}
}

// Uint64Hash is a Fibonacci/avalanche hash suitable for integer keys such as
// page identifiers.
func Uint64Hash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	k *= 0xC4CEB9FE1A85EC53
	k ^= k >> 33
	return k
}

// stripeFor picks h's stripe from the low log2(stripes) hash bits.
func (m *Map[K, V]) stripeFor(h uint64) *stripe[K, V] {
	return &m.stripes[h&m.mask]
}

// bucket picks h's chain head from the hash bits above the stripe's.
func (t *table[K, V]) bucket(h uint64) *atomic.Pointer[node[K, V]] {
	return &t.buckets[(h>>t.shift)&t.mask]
}

// Get returns the value for k, if present. It is lock-free: a table-pointer
// load, a bucket-head load, and a chain walk over atomic links.
func (m *Map[K, V]) Get(k K) (V, bool) {
	h := m.hash(k)
	t := m.stripeFor(h).tab.Load()
	for n := t.bucket(h).Load(); n != nil; n = n.next.Load() {
		if n.key == k {
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// Put stores v under k, replacing any existing value.
func (m *Map[K, V]) Put(k K, v V) {
	h := m.hash(k)
	s := m.stripeFor(h)
	s.mu.Lock()
	s.put(h, k, v)
	s.mu.Unlock()
}

// put inserts or replaces (k, v); the caller holds s.mu.
func (s *stripe[K, V]) put(h uint64, k K, v V) {
	t := s.tab.Load()
	b := t.bucket(h)
	var prev *node[K, V]
	for n := b.Load(); n != nil; n = n.next.Load() {
		if n.key == k {
			// Replace by splicing in a fresh node: published nodes are
			// immutable so concurrent readers see either the old or the new
			// value, never a torn one.
			repl := &node[K, V]{key: k, val: v, hash: h}
			repl.next.Store(n.next.Load())
			if prev == nil {
				b.Store(repl)
			} else {
				prev.next.Store(repl)
			}
			return
		}
		prev = n
	}
	fresh := &node[K, V]{key: k, val: v, hash: h}
	fresh.next.Store(b.Load())
	b.Store(fresh)
	s.count++
	if s.count > len(t.buckets)*loadFactor {
		s.grow(t)
	}
}

// grow doubles the stripe's bucket array. Every node is copied — relinking
// published nodes would corrupt the chains concurrent readers are walking in
// the old table — and the new table is published with one atomic store.
func (s *stripe[K, V]) grow(old *table[K, V]) {
	t := newTable[K, V](len(old.buckets)*2, old.shift)
	for i := range old.buckets {
		for n := old.buckets[i].Load(); n != nil; n = n.next.Load() {
			b := t.bucket(n.hash)
			c := &node[K, V]{key: n.key, val: n.val, hash: n.hash}
			c.next.Store(b.Load())
			b.Store(c)
		}
	}
	s.tab.Store(t)
}

// Delete removes k. It reports whether the key was present.
func (m *Map[K, V]) Delete(k K) bool {
	h := m.hash(k)
	s := m.stripeFor(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tab.Load()
	b := t.bucket(h)
	var prev *node[K, V]
	for n := b.Load(); n != nil; n = n.next.Load() {
		if n.key == k {
			if prev == nil {
				b.Store(n.next.Load())
			} else {
				prev.next.Store(n.next.Load())
			}
			s.count--
			return true
		}
		prev = n
	}
	return false
}

// Len returns the number of entries. It is a snapshot, not a fence.
func (m *Map[K, V]) Len() int {
	n := 0
	for i := range m.stripes {
		m.stripes[i].mu.Lock()
		n += m.stripes[i].count
		m.stripes[i].mu.Unlock()
	}
	return n
}
