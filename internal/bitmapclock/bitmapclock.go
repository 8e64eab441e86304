// Package bitmapclock implements the CLOCK page-replacement policy over a
// concurrent bitmap, in the spirit of NB-GCLOCK (Yui et al., ICDE 2010),
// which the paper cites for its DRAM and NVM buffers (§5.2).
//
// Reference bits live in a packed atomic bitmap so that marking a frame
// referenced is a load and at most one lock-free fetch-OR, and the sweeping
// hand clears bits with fetch-AND. Victim *selection* is lock-free; the
// caller is responsible for validating the victim (e.g. freezing its pin
// count) and calling Evict again if validation fails.
package bitmapclock

import "sync/atomic"

// Clock is a concurrent CLOCK replacement policy over n frames.
type Clock struct {
	n     int
	words []atomic.Uint64
	hand  atomic.Uint64
}

// New creates a policy covering n frames, all initially unreferenced.
func New(n int) *Clock {
	if n <= 0 {
		panic("bitmapclock: frame count must be positive")
	}
	return &Clock{
		n:     n,
		words: make([]atomic.Uint64, (n+63)/64),
	}
}

// Len returns the number of frames covered.
func (c *Clock) Len() int { return c.n }

// Ref marks frame i as recently referenced. It tests before it sets: a hot
// frame's bit is already on, and a load leaves the word's cache line shared
// between the workers referencing its 64 frames where an unconditional
// fetch-OR would take it exclusive every time.
func (c *Clock) Ref(i int) {
	w, bit := &c.words[i>>6], uint64(1)<<uint(i&63)
	if w.Load()&bit == 0 {
		w.Or(bit)
	}
}

// Unref clears frame i's reference bit (used when a frame is freed).
func (c *Clock) Unref(i int) {
	c.words[i>>6].And(^(uint64(1) << uint(i&63)))
}

// Referenced reports whether frame i's reference bit is set.
func (c *Clock) Referenced(i int) bool {
	return c.words[i>>6].Load()&(1<<uint(i&63)) != 0
}

// Ranges splits n frames into the given number of contiguous, balanced,
// non-empty partitions. Sharded buffer pools use it to give each shard its
// own CLOCK instance — and therefore its own hand — over a private frame
// range: per-shard hands sweep independently, so victim selection never
// contends on one shared hand word. The last range absorbs the remainder;
// shards is clamped so no range is empty.
func Ranges(n, shards int) [][2]int {
	if n <= 0 {
		panic("bitmapclock: frame count must be positive")
	}
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	per := n / shards
	out := make([][2]int, shards)
	lo := 0
	for i := range out {
		hi := lo + per
		if i == shards-1 {
			hi = n
		}
		out[i] = [2]int{lo, hi}
		lo = hi
	}
	return out
}

// Victim advances the hand until it finds a frame whose reference bit is
// clear, clearing bits as it passes (second-chance). It gives up after two
// full sweeps and returns the frame under the hand regardless, so it always
// terminates even if other workers keep re-referencing frames.
func (c *Clock) Victim() int {
	limit := 2 * c.n
	for i := 0; i < limit; i++ {
		h := int(c.hand.Add(1)-1) % c.n
		w := &c.words[h>>6]
		bit := uint64(1) << uint(h&63)
		if w.Load()&bit == 0 {
			return h
		}
		w.And(^bit) // second chance: clear and move on
	}
	return int(c.hand.Add(1)-1) % c.n
}
