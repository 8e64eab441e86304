package testutil

import (
	"os"
	"syscall"
	"unsafe"
)

// Resident reports, host page by host page (os.Getpagesize), which pages of
// b the kernel backs with memory: mincore(2). b must start on a page
// boundary. Where b is not mapped it fails with syscall.ENOMEM.
func Resident(b []byte) ([]bool, error) {
	if len(b) == 0 {
		return nil, nil
	}
	ps := os.Getpagesize()
	vec := make([]byte, (len(b)+ps-1)/ps)
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE,
		uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(len(b)), uintptr(unsafe.Pointer(&vec[0])))
	if errno != 0 {
		return nil, errno
	}
	in := make([]bool, len(vec))
	for i, v := range vec {
		in[i] = v&1 != 0
	}
	return in, nil
}
