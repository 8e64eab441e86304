//go:build !race

package hostmem

import (
	"fmt"
	"runtime"
	"syscall"
)

// Map maps n zero bytes. A zero n maps nothing and yields an empty region.
// Like make, it panics if the bytes cannot be had.
func Map(n int) *Region {
	r := &Region{}
	if n == 0 {
		return r
	}
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(fmt.Sprintf("hostmem: map %d bytes: %v", n, err))
	}
	r.b = b
	runtime.SetFinalizer(r, (*Region).unmap)
	return r
}

// unmap returns the region to the kernel; it runs once r is unreachable.
func (r *Region) unmap() {
	if err := syscall.Munmap(r.b); err != nil {
		panic(fmt.Sprintf("hostmem: unmap %d bytes: %v", len(r.b), err))
	}
}
