//go:build !lockcheck

// Without -tags lockcheck the checker compiles to empty inlinable calls;
// see lockcheck.go for the real implementation and the rules it enforces.
package lockcheck

// Enabled reports whether the checker is compiled in.
const Enabled = false

// Acquire is a no-op without the lockcheck build tag.
func Acquire(obj any, rank int) {}

// Acquired is a no-op without the lockcheck build tag.
func Acquired(obj any, rank int) {}

// Release is a no-op without the lockcheck build tag.
func Release(obj any, rank int) {}

// EnableWaitGraph is a no-op without the lockcheck build tag.
func EnableWaitGraph() {}

// DisableWaitGraph is a no-op without the lockcheck build tag.
func DisableWaitGraph() {}

// WaitGraphReport returns nil without the lockcheck build tag.
func WaitGraphReport() []string { return nil }
