package cht

import (
	"sync"
	"testing"
	"testing/quick"
)

func newTestMap() *Map[uint64, int] {
	return New[uint64, int](Uint64Hash)
}

func TestBasicOps(t *testing.T) {
	m := newTestMap()
	if _, ok := m.Get(1); ok {
		t.Fatal("Get on empty map returned ok")
	}
	m.Put(1, 10)
	if v, ok := m.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = %d,%v", v, ok)
	}
	m.Put(1, 20)
	if v, _ := m.Get(1); v != 20 {
		t.Fatalf("Put did not replace: %d", v)
	}
	if !m.Delete(1) {
		t.Fatal("Delete of present key returned false")
	}
	if m.Delete(1) {
		t.Fatal("Delete of absent key returned true")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after delete", m.Len())
	}
}

func TestBadShardCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two shards")
		}
	}()
	NewWithShards[uint64, int](Uint64Hash, 3)
}

// Property: a cht behaves like a plain map under any sequence of operations.
func TestQuickMatchesModel(t *testing.T) {
	f := func(ops []struct {
		Key uint64
		Val int
		Op  uint8
	}) bool {
		m := newTestMap()
		model := make(map[uint64]int)
		for _, op := range ops {
			k := op.Key % 64
			switch op.Op % 3 {
			case 0:
				m.Put(k, op.Val)
				model[k] = op.Val
			case 1:
				got, ok := m.Get(k)
				want, wok := model[k]
				if ok != wok || (ok && got != want) {
					return false
				}
			case 2:
				if m.Delete(k) != (func() bool { _, ok := model[k]; return ok })() {
					return false
				}
				delete(model, k)
			}
		}
		return m.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDisjointKeys(t *testing.T) {
	m := newTestMap()
	const workers = 8
	const keysPerWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w * keysPerWorker)
			for i := uint64(0); i < keysPerWorker; i++ {
				m.Put(base+i, int(base+i))
			}
			for i := uint64(0); i < keysPerWorker; i++ {
				if v, ok := m.Get(base + i); !ok || v != int(base+i) {
					t.Errorf("lost key %d", base+i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if m.Len() != workers*keysPerWorker {
		t.Fatalf("Len = %d, want %d", m.Len(), workers*keysPerWorker)
	}
}
