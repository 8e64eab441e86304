// Package hostmem gives the buffer arenas host memory that the kernel backs
// only where it is used.
//
// A buffer manager's DRAM and NVM arenas are fixed pools that fill only as
// pages arrive. Taken from make, an arena that reuses spans freed by an
// earlier stack is zeroed whole by the Go runtime, so all of it is resident
// before a single frame is used. Map instead maps an anonymous, zero-filled
// region: the kernel backs a page of it on the first store, so the resident
// part of an arena is the part ever written. The region lies outside the Go
// heap, so neither the GC's heap goal nor its scans count it.
//
// The region is unmapped once its Region is collected. A slice of it keeps
// nothing alive, so its owner — the object that holds the *Region — must
// stay reachable while any slice of the region is in use; a read through a
// slice after the owner's last use is a fault, not a panic.
//
// Under the race detector (the race build constraint) Map takes the bytes
// from the Go heap instead: the detector checks only memory the Go runtime
// allocated, and the frame bytes are where the buffer manager's readers and
// writers meet.
package hostmem

// Region is one block of arena bytes. It holds no pointer back to its owner,
// so a cycle through the owner cannot keep its finalizer from running.
type Region struct {
	b []byte
}

// Bytes is the whole region.
func (r *Region) Bytes() []byte { return r.b }
