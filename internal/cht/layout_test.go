package cht

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestChainsStayShort loads a map of 100 k keys, a table far larger than
// core's page tables, and checks that the hash is actually spread over the
// buckets: no chain far past loadFactor, and nearly every bucket of a grown
// stripe in use. With stripe and bucket taken from the same hash bits a
// stripe's entries all land in one chain and both checks fail.
func TestChainsStayShort(t *testing.T) {
	m := newTestMap()
	const keys = 100_000
	for k := uint64(0); k < keys; k++ {
		m.Put(k, int(k))
	}
	longest, buckets, used := 0, 0, 0
	for i := range m.stripes {
		tab := m.stripes[i].tab.Load()
		if len(tab.buckets) == stripeInitBuckets {
			t.Fatalf("stripe %d never grew with %d keys loaded", i, keys)
		}
		stripeUsed := 0
		for b := range tab.buckets {
			n := 0
			for e := tab.buckets[b].Load(); e != nil; e = e.next.Load() {
				n++
			}
			longest = max(longest, n)
			if n > 0 {
				stripeUsed++
			}
		}
		// One stripe is a small sample (about 6 of 128 buckets empty by
		// chance); the 90 % floor is asserted over the whole map below.
		if stripeUsed*4 < len(tab.buckets)*3 {
			t.Errorf("stripe %d: %d of %d buckets in use, want >= 75%%", i, stripeUsed, len(tab.buckets))
		}
		buckets += len(tab.buckets)
		used += stripeUsed
	}
	if longest > 4*loadFactor {
		t.Errorf("longest chain is %d nodes, want <= %d", longest, 4*loadFactor)
	}
	if used*10 < buckets*9 {
		t.Errorf("%d of %d buckets in use, want >= 90%%", used, buckets)
	}
}

func TestStripeIsWholeCacheLines(t *testing.T) {
	if sz := unsafe.Sizeof(stripe[uint64, *int]{}); sz%64 != 0 {
		t.Fatalf("stripe is %d bytes, want a multiple of 64", sz)
	}
}

// BenchmarkGet reads maps the size of the bm-hot and bm-churn page tables
// and one of 100 k keys, a table large enough to miss in cache. The ns/op
// figures should stay within 2x of each other: chains are equally short at
// every size, so only cache misses on the larger tables separate them.
func BenchmarkGet(b *testing.B) {
	for _, size := range []uint64{512, 8192, 100_000} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			m := newTestMap()
			for k := uint64(0); k < size; k++ {
				m.Put(k, int(k))
			}
			// A hot set of 512 keys spread over the whole key range, like the
			// skewed draws of the workloads.
			stride := size / 512
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := m.Get(uint64(i) % 512 * stride); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}
