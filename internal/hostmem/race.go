//go:build race

package hostmem

// Map takes n zero bytes from the Go heap, where the race detector sees
// every access to them; the collector frees them with the Region.
func Map(n int) *Region { return &Region{b: make([]byte, n)} }
