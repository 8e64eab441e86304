//go:build lockcheck

package lockcheck

import (
	"strings"
	"testing"
)

// mustPanic runs fn and returns the panic message, failing the test if fn
// returns normally.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg, _ = r.(string)
	}()
	fn()
	return ""
}

// TestTxnGateIsARoot: the server's transaction gate may be taken only with
// nothing held — not under a latch, and not a second time by the same
// goroutine (a nested read lock deadlocks behind a waiting checkpoint). A
// latch under the gate is the normal order.
func TestTxnGateIsARoot(t *testing.T) {
	gate, d := new(int), new(int)

	Acquire(gate, RankTxnGate)
	Acquire(d, RankD)
	Release(d, RankD)
	Release(gate, RankTxnGate)

	Acquired(d, RankD)
	msg := mustPanic(t, func() { Acquire(gate, RankTxnGate) })
	Release(d, RankD)
	if !strings.Contains(msg, "server.txnGate") || !strings.Contains(msg, "latchD") {
		t.Fatalf("gate under a latch: panic %q does not name both", msg)
	}

	Acquire(gate, RankTxnGate)
	mustPanic(t, func() { Acquire(gate, RankTxnGate) })
	Release(gate, RankTxnGate)
}
