package vclock

import (
	"testing"
	"unsafe"
)

func TestAdvance(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Fatalf("new clock at %d, want 0", c.Now())
	}
	c.Advance(100)
	if c.Now() != 100 {
		t.Fatalf("after Advance(100): %d", c.Now())
	}
	c.Advance(-50)
	if c.Now() != 100 {
		t.Fatalf("negative Advance moved clock to %d", c.Now())
	}
	c.Advance(0)
	if c.Now() != 100 {
		t.Fatalf("zero Advance moved clock to %d", c.Now())
	}
}

func TestAdvanceTo(t *testing.T) {
	c := At(1000)
	if skipped := c.AdvanceTo(500); skipped != 0 {
		t.Fatalf("AdvanceTo past time skipped %d, want 0", skipped)
	}
	if c.Now() != 1000 {
		t.Fatalf("AdvanceTo past time moved clock to %d", c.Now())
	}
	if skipped := c.AdvanceTo(2500); skipped != 1500 {
		t.Fatalf("AdvanceTo(2500) skipped %d, want 1500", skipped)
	}
	if c.Now() != 2500 {
		t.Fatalf("clock at %d, want 2500", c.Now())
	}
}

func TestSeconds(t *testing.T) {
	c := At(2_500_000_000)
	if got := c.Seconds(); got != 2.5 {
		t.Fatalf("Seconds() = %v, want 2.5", got)
	}
}

// TestClockIsOneCacheLine checks both halves of what keeps two workers'
// clocks off each other's cache line: the size, and that New really returns
// line-aligned clocks (pointer-free 64-byte objects carry no allocation
// header, so the allocator's 64-byte class aligns them).
func TestClockIsOneCacheLine(t *testing.T) {
	if sz := unsafe.Sizeof(Clock{}); sz != 64 {
		t.Fatalf("Clock is %d bytes, want 64", sz)
	}
	for i := 0; i < 64; i++ {
		heapClock = New() // escapes: a clock that stays on the stack proves nothing
		if a := uintptr(unsafe.Pointer(heapClock)); a%64 != 0 {
			t.Fatalf("New returned a clock at %#x, not on a cache-line boundary", a)
		}
	}
}

var heapClock *Clock
