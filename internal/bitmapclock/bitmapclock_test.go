package bitmapclock

import (
	"sync"
	"testing"
	"unsafe"
)

// TestClockLayout pins the hand on a cache line of its own, stated as
// distances because a Clock is only 8-byte aligned: no other field, and
// nothing the allocator places after the Clock, within 56 bytes of it.
func TestClockLayout(t *testing.T) {
	var c Clock
	h := unsafe.Offsetof(c.hand)
	if end := unsafe.Offsetof(c.words) + unsafe.Sizeof(c.words); h-end < 56 {
		t.Errorf("words ends at offset %d, %d bytes before the hand: want >= 56", end, h-end)
	}
	if tail := unsafe.Sizeof(c) - (h + 8); tail < 56 {
		t.Errorf("the Clock ends %d bytes after the hand: want >= 56", tail)
	}
}

func TestRefUnref(t *testing.T) {
	c := New(128)
	if c.Referenced(5) {
		t.Fatal("fresh frame referenced")
	}
	c.Ref(5)
	if !c.Referenced(5) {
		t.Fatal("Ref did not set bit")
	}
	c.Unref(5)
	if c.Referenced(5) {
		t.Fatal("Unref did not clear bit")
	}
	// Bits are independent.
	c.Ref(64)
	if c.Referenced(63) || c.Referenced(65) {
		t.Fatal("Ref(64) bled into neighbors")
	}
}

func TestVictimPrefersUnreferenced(t *testing.T) {
	c := New(4)
	c.Ref(0)
	c.Ref(1)
	// Hand starts at 0; frames 0 and 1 get second chances, frame 2 is the
	// first unreferenced frame.
	if v := c.Victim(); v != 2 {
		t.Fatalf("victim = %d, want 2", v)
	}
	// The pass cleared 0 and 1's bits.
	if c.Referenced(0) || c.Referenced(1) {
		t.Fatal("sweep did not clear reference bits")
	}
}

func TestVictimSecondChanceCycle(t *testing.T) {
	c := New(3)
	for i := 0; i < 3; i++ {
		c.Ref(i)
	}
	// All referenced: first sweep clears all, second finds frame 0... the
	// exact victim depends on hand position, but Victim must terminate and
	// return a valid frame.
	v := c.Victim()
	if v < 0 || v >= 3 {
		t.Fatalf("victim %d out of range", v)
	}
}

func TestVictimAlwaysTerminatesUnderContention(t *testing.T) {
	c := New(64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Hammer every frame's ref bit while another goroutine evicts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for i := 0; i < 64; i++ {
					c.Ref(i)
				}
			}
		}
	}()
	for i := 0; i < 10_000; i++ {
		v := c.Victim()
		if v < 0 || v >= 64 {
			t.Fatalf("victim %d out of range", v)
		}
	}
	close(stop)
	wg.Wait()
}

func TestVictimCoversAllFrames(t *testing.T) {
	c := New(8)
	seen := make(map[int]bool)
	for i := 0; i < 64; i++ {
		seen[c.Victim()] = true
	}
	if len(seen) != 8 {
		t.Fatalf("victims covered %d frames, want 8", len(seen))
	}
}

func TestZeroFramesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}
