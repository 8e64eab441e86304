//go:build !lockcheck

// Without -tags lockcheck the checker compiles to empty inlinable calls;
// see lockcheck.go for the real implementation and the rules it enforces.
package lockcheck

// Enabled reports whether the checker is compiled in.
const Enabled = false

// Holder is zero-size without the lockcheck build tag. A struct that embeds
// one must not end with it: a final zero-size field is padded.
type Holder struct{}

// Acquire is a no-op without the lockcheck build tag.
func Acquire(h *Holder, obj any, rank int) {}

// Acquired is a no-op without the lockcheck build tag.
func Acquired(h *Holder, obj any, rank int) {}

// Release is a no-op without the lockcheck build tag.
func Release(h *Holder, obj any, rank int) {}

// EnableWaitGraph is a no-op without the lockcheck build tag.
func EnableWaitGraph() {}

// DisableWaitGraph is a no-op without the lockcheck build tag.
func DisableWaitGraph() {}

// WaitGraphReport returns nil without the lockcheck build tag.
func WaitGraphReport() []string { return nil }
