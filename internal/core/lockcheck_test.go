//go:build lockcheck

package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/spitfire-db/spitfire/internal/lockcheck"
)

// mustPanic runs f and returns the lockcheck panic message, failing the
// test if f completes without panicking.
func mustPanic(t *testing.T, f func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected a lockcheck panic, got none")
			}
			msg = fmt.Sprint(r)
		}()
		f()
	}()
	return msg
}

// TestLockcheckPanicsOnInversion proves the runtime checker catches a
// deliberately inverted latchS → latchN acquisition before it can block.
func TestLockcheckPanicsOnInversion(t *testing.T) {
	var h lockcheck.Holder
	d := &descriptor{}
	d.lockS(&h)
	defer d.unlockS(&h)
	msg := mustPanic(t, func() { d.lockN(&h) })
	if !strings.Contains(msg, "tier order is latchD → latchN → latchS") {
		t.Fatalf("panic message missing tier-order explanation: %q", msg)
	}
	if !strings.Contains(msg, "earlier acquisition of latchS") {
		t.Fatalf("panic message missing the conflicting acquisition stack: %q", msg)
	}
}

// TestLockcheckPanicsUnderMu proves mu is enforced as a leaf lock.
func TestLockcheckPanicsUnderMu(t *testing.T) {
	var h lockcheck.Holder
	d := &descriptor{}
	d.lockMu(&h)
	defer d.unlockMu(&h)
	msg := mustPanic(t, func() { d.lockD(&h) })
	if !strings.Contains(msg, "mu is a leaf lock") {
		t.Fatalf("panic message missing leaf-lock explanation: %q", msg)
	}
}

// TestLockcheckPanicsOnSecondDescriptorBlocking proves a blocking tier Lock
// on a second descriptor panics while a TryLock is accepted.
func TestLockcheckPanicsOnSecondDescriptorBlocking(t *testing.T) {
	var h lockcheck.Holder
	a, b := &descriptor{}, &descriptor{}
	a.lockD(&h)
	defer a.unlockD(&h)
	msg := mustPanic(t, func() { b.lockD(&h) })
	if !strings.Contains(msg, "second descriptors only via TryLock") {
		t.Fatalf("panic message missing TryLock guidance: %q", msg)
	}
	if !b.tryLockD(&h) {
		t.Fatal("uncontended TryLock on second descriptor failed")
	}
	b.unlockD(&h)
}

// TestLockcheckAllowsDiscipline runs the full legal sequence — tiers in
// order with skips, mu as a leaf under a tier latch, TryLock on a second
// descriptor — and expects no panic.
func TestLockcheckAllowsDiscipline(t *testing.T) {
	var h lockcheck.Holder
	a, b := &descriptor{}, &descriptor{}
	a.lockD(&h)
	a.lockS(&h) // skipping latchN is legal
	a.lockMu(&h)
	a.unlockMu(&h)
	if b.tryLockN(&h) {
		b.unlockN(&h)
	}
	b.lockMu(&h) // blocking mu on a second descriptor is legal (leaf)
	b.unlockMu(&h)
	a.unlockS(&h)
	a.unlockD(&h)
}

// TestStaleReleasePanics: a handle released, and then released again after
// its Ctx has fetched another page, must panic rather than drop the new
// fetch's pin. The lockcheck build never reissues a released handle, so the
// stale pointer still reads as released.
func TestStaleReleasePanics(t *testing.T) {
	bm := hotBM(t, 2)
	ctx := NewCtx(3)
	old, err := bm.FetchPage(ctx, 0, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	old.Release()
	h, err := bm.FetchPage(ctx, 1, ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a stale Release after the Ctx fetched again did not panic")
			}
		}()
		old.Release()
	}()
}

// TestLockcheckPanicsUnderFg proves a frame group's fg.mu is a strict leaf:
// not even descriptor.mu may be taken under it.
func TestLockcheckPanicsUnderFg(t *testing.T) {
	var h lockcheck.Holder
	d, fg := &descriptor{}, newFullFG(256)
	fg.lock(&h)
	defer fg.unlock(&h)
	msg := mustPanic(t, func() { d.lockMu(&h) })
	if !strings.Contains(msg, "frame-group lock is a strict leaf") {
		t.Fatalf("panic message missing strict-leaf explanation: %q", msg)
	}
}
