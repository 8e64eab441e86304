package main

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// The rig generates its inputs itself, from --seed alone, instead of
// borrowing internal/zipf: a later change to the program's own generators
// must not change what both sides of a comparison are asked to do.

// rng is SplitMix64. One per worker; never shared.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9E3779B97F4A7C15 + 0x6A09E667F3BCC909} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n) by multiply-shift (no modulo bias worth
// the name at these n, and no division on the measured path).
func (r *rng) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// zipfTable draws ranks with P(rank i) ∝ 1/(i+1)^theta through a Vose alias
// table and maps each rank to an item through a seeded permutation, so hot
// items are scattered over the id space. One draw costs one random number
// and one table read — cheap next to the ~300 ns operations it feeds, which
// a math.Pow-per-draw generator is not.
type zipfTable struct {
	prob  []uint32 // acceptance threshold of slot i, scaled to 2^32
	alias []uint32
	item  []uint32 // rank -> item id
}

func newZipfTable(n int, theta float64, seed uint64) *zipfTable {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), theta)
		sum += w[i]
	}
	z := &zipfTable{prob: make([]uint32, n), alias: make([]uint32, n), item: make([]uint32, n)}
	small, large := make([]int, 0, n), make([]int, 0, n)
	for i := range w {
		w[i] = w[i] / sum * float64(n)
		if w[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s, l := small[len(small)-1], large[len(large)-1]
		small = small[:len(small)-1]
		z.prob[s] = uint32(math.Min(w[s]*(1<<32), 1<<32-1))
		z.alias[s] = uint32(l)
		w[l] -= 1 - w[s]
		if w[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, i := range append(small, large...) {
		z.prob[i], z.alias[i] = 1<<32-1, uint32(i)
	}
	r := newRNG(seed ^ 0x5A17F17E)
	for i := range z.item {
		z.item[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		z.item[i], z.item[j] = z.item[j], z.item[i]
	}
	return z
}

// draw returns the next item id.
func (z *zipfTable) draw(r *rng) uint64 {
	u := r.next()
	hi, _ := bits.Mul64(u, uint64(len(z.prob)))
	if uint32(u) > z.prob[hi] { // low 32 bits: independent enough of the slot bits
		hi = uint64(z.alias[hi])
	}
	return uint64(z.item[hi])
}

// A stamp is the self-describing content the rig writes so every read can be
// checked: who owns the bytes (page+unit, or key), which worker wrote them
// and that worker's per-item sequence number, followed by a fill derived
// from those three so a torn or misplaced write cannot pass.
const (
	stampHeader = 16
	loaderID    = 0xFFFF // "worker" id of the set-up load
)

type stamp struct {
	id     uint64 // page<<8|unit for bm-*, key for kv-txn / serve-http
	worker uint16
	seq    uint32
}

func (s stamp) fill(i int) uint64 {
	x := s.id*0x9E3779B97F4A7C15 ^ uint64(s.worker)<<48 ^ uint64(s.seq)<<8 ^ uint64(i)
	return x * 0xD6E8FEB86659FD93
}

// put encodes s into buf (len ≥ stampHeader, multiple of 8).
func (s stamp) put(buf []byte) {
	binary.LittleEndian.PutUint64(buf, s.id)
	binary.LittleEndian.PutUint16(buf[8:], s.worker)
	binary.LittleEndian.PutUint16(buf[10:], 0)
	binary.LittleEndian.PutUint32(buf[12:], s.seq)
	for i := stampHeader; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], s.fill(i))
	}
}

// readStamp decodes buf and reports whether header and fill agree.
func readStamp(buf []byte) (stamp, bool) {
	if len(buf) < stampHeader {
		return stamp{}, false
	}
	s := stamp{
		id:     binary.LittleEndian.Uint64(buf),
		worker: binary.LittleEndian.Uint16(buf[8:]),
		seq:    binary.LittleEndian.Uint32(buf[12:]),
	}
	for i := stampHeader; i+8 <= len(buf); i += 8 {
		if binary.LittleEndian.Uint64(buf[i:]) != s.fill(i) {
			return s, false
		}
	}
	return s, true
}
