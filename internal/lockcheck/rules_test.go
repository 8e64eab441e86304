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
// holder (a nested read lock deadlocks behind a waiting checkpoint). A
// latch under the gate is the normal order.
func TestTxnGateIsARoot(t *testing.T) {
	var h Holder
	gate, d := new(int), new(int)

	Acquire(&h, gate, RankTxnGate)
	Acquire(&h, d, RankD)
	Release(&h, d, RankD)
	Release(&h, gate, RankTxnGate)

	Acquired(&h, d, RankD)
	msg := mustPanic(t, func() { Acquire(&h, gate, RankTxnGate) })
	Release(&h, d, RankD)
	if !strings.Contains(msg, "server.txnGate") || !strings.Contains(msg, "latchD") {
		t.Fatalf("gate under a latch: panic %q does not name both", msg)
	}

	Acquire(&h, gate, RankTxnGate)
	mustPanic(t, func() { Acquire(&h, gate, RankTxnGate) })
	Release(&h, gate, RankTxnGate)
}

// TestHoldersAreIndependent interleaves two holders' acquisitions, first on
// two goroutines and then on one: each is checked against its own stack
// only. A holder's blocking latchD of another descriptor would break rule 3
// under its own latchD; under the other holder's it is just a wait.
func TestHoldersAreIndependent(t *testing.T) {
	var a, b Holder
	x, y := new(int), new(int)

	step := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-step
		Acquire(&b, y, RankD) // a holds x's latchD
		Acquire(&b, y, RankN)
		step <- struct{}{}
		<-step
		Release(&b, y, RankN)
		Release(&b, y, RankD)
	}()
	Acquire(&a, x, RankD)
	step <- struct{}{}
	<-step
	Acquire(&a, x, RankS) // b holds y's latchD and latchN
	step <- struct{}{}
	<-done
	Release(&a, x, RankS)
	Release(&a, x, RankD)

	// One goroutine, two holders: the goroutine is not the identity.
	Acquire(&a, x, RankS)
	Acquire(&b, x, RankD) // under a's latchS, not b's
	Acquire(&b, y, RankMu)
	Acquired(&a, y, RankD) // under b's mu, not a's
	mustPanic(t, func() { Acquired(&b, y, RankD) })
	Release(&a, y, RankD)
	Release(&b, y, RankMu)
	Release(&b, x, RankD)
	Release(&a, x, RankS)
}

// TestReleaseByAnotherHolderIsIgnored: a latch unlocked through a holder
// that never took it (a mutex handed off) leaves that holder's stack empty
// and the taker's stack as it was.
func TestReleaseByAnotherHolderIsIgnored(t *testing.T) {
	var taker, other Holder
	x, y := new(int), new(int)

	Acquire(&taker, x, RankD)
	Release(&other, x, RankD)
	Acquire(&other, y, RankD) // other holds nothing: legal
	Release(&other, y, RankD)
	msg := mustPanic(t, func() { Acquire(&taker, y, RankD) })
	if !strings.Contains(msg, "second descriptors only via TryLock") {
		t.Fatalf("taker's latchD was dropped by another holder's Release: %q", msg)
	}
	Release(&taker, x, RankD)
	Acquire(&taker, y, RankD)
	Release(&taker, y, RankD)
}

// takeD and tryS are named frames for TestViolationPrintsEarlierStack to
// find.
//
//go:noinline
func takeD(h *Holder, obj any) { Acquire(h, obj, RankD) }

//go:noinline
func tryS(h *Holder, obj any) { Acquired(h, obj, RankS) }

// TestViolationPrintsEarlierStack: the panic names the rule, the held
// latch, and the stack that took the held latch — the conflicting one's,
// after an earlier latch was released out of order.
func TestViolationPrintsEarlierStack(t *testing.T) {
	var h Holder
	x, d := new(int), new(int)
	takeD(&h, x)
	tryS(&h, d)
	Release(&h, x, RankD)
	msg := mustPanic(t, func() { Acquire(&h, d, RankN) })
	Release(&h, d, RankS)
	for _, want := range []string{
		"tier order is latchD → latchN → latchS",
		"earlier acquisition of latchS at:",
		"lockcheck.tryS\n",
		"lockcheck.TestViolationPrintsEarlierStack\n",
		"rules_test.go:",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic message lacks %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "lockcheck.takeD") {
		t.Errorf("panic message shows the released latch's stack:\n%s", msg)
	}
}
