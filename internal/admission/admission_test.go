package admission

import (
	"sync"
	"testing"

	"github.com/spitfire-db/spitfire/internal/testutil"
)

func TestSecondChanceAdmission(t *testing.T) {
	q := New(4)
	if q.Admit(1) {
		t.Fatal("first sighting admitted")
	}
	if !q.Contains(1) {
		t.Fatal("denied page not remembered")
	}
	if !q.Admit(1) {
		t.Fatal("second sighting not admitted")
	}
	if q.Contains(1) {
		t.Fatal("admitted page still queued")
	}
	// Third sighting starts over.
	if q.Admit(1) {
		t.Fatal("third sighting admitted without a fresh denial")
	}
}

func TestCapacityEvictsOldest(t *testing.T) {
	q := New(2)
	q.Admit(1) // queue: [1]
	q.Admit(2) // queue: [1 2]
	q.Admit(3) // queue: [2 3], 1 evicted
	if q.Contains(1) {
		t.Fatal("oldest entry not evicted at capacity")
	}
	if !q.Contains(2) || !q.Contains(3) {
		t.Fatal("newer entries lost")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	// 1 was forgotten, so it is denied again.
	if q.Admit(1) {
		t.Fatal("evicted page admitted on re-sighting")
	}
}

func TestForget(t *testing.T) {
	q := New(4)
	q.Admit(9)
	q.Forget(9)
	if q.Contains(9) {
		t.Fatal("Forget left page queued")
	}
	q.Forget(9) // no-op on absent key
	if q.Admit(9) {
		t.Fatal("forgotten page admitted")
	}
}

func TestFIFOOrderAcrossRemovals(t *testing.T) {
	q := New(3)
	q.Admit(1)
	q.Admit(2)
	q.Admit(3)
	q.Admit(2) // removes 2 from the middle; queue: [1 3]
	q.Admit(4) // queue: [1 3 4]
	q.Admit(5) // over capacity: 1 evicted; queue: [3 4 5]
	if q.Contains(1) {
		t.Fatal("FIFO order broken: 1 should be the eviction victim")
	}
	for _, pid := range []uint64{3, 4, 5} {
		if !q.Contains(pid) {
			t.Fatalf("page %d lost", pid)
		}
	}
}

func TestMinimumCapacity(t *testing.T) {
	q := New(0)
	if q.Capacity() != 1 {
		t.Fatalf("capacity = %d, want clamped to 1", q.Capacity())
	}
	q.Admit(1)
	q.Admit(2) // evicts 1
	if !q.Admit(2) {
		t.Fatal("page 2 should be admitted on second sighting")
	}
}

func TestConcurrentAdmit(t *testing.T) {
	q := New(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				q.Admit(uint64(i % 64))
			}
		}(w)
	}
	wg.Wait()
	if q.Len() > 128 {
		t.Fatalf("queue overflowed capacity: %d", q.Len())
	}
}

// fifoModel is the reference the queue must agree with: a slice in arrival
// order, searched linearly.
type fifoModel struct {
	capacity int
	pids     []uint64
}

func (m *fifoModel) find(pid uint64) int {
	for i, p := range m.pids {
		if p == pid {
			return i
		}
	}
	return -1
}

func (m *fifoModel) admit(pid uint64) bool {
	if i := m.find(pid); i >= 0 {
		m.pids = append(m.pids[:i], m.pids[i+1:]...)
		return true
	}
	if len(m.pids) >= m.capacity {
		m.pids = m.pids[1:]
	}
	m.pids = append(m.pids, pid)
	return false
}

func (m *fifoModel) forget(pid uint64) {
	if i := m.find(pid); i >= 0 {
		m.pids = append(m.pids[:i], m.pids[i+1:]...)
	}
}

// TestAdmitMatchesModel drives the queue and the reference model with one
// random sequence of admissions and forgets, over few enough pages that
// admissions, denials, full-queue evictions and removals from the middle all
// happen often, and requires the two to agree at every step.
func TestAdmitMatchesModel(t *testing.T) {
	const capacity, pages, steps = 16, 40, 20000
	q := New(capacity)
	m := &fifoModel{capacity: capacity}
	rng := uint64(0x9E3779B97F4A7C15)
	admits := 0
	for i := 0; i < steps; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		pid := (rng >> 33) % pages
		if (rng>>20)%8 == 0 {
			q.Forget(pid)
			m.forget(pid)
		} else {
			got, want := q.Admit(pid), m.admit(pid)
			if got != want {
				t.Fatalf("step %d: Admit(%d) = %v, model says %v", i, pid, got, want)
			}
			if got {
				admits++
			}
		}
		if q.Len() != len(m.pids) {
			t.Fatalf("step %d: Len = %d, model holds %d", i, q.Len(), len(m.pids))
		}
		if q.Contains(pid) != (m.find(pid) >= 0) {
			t.Fatalf("step %d: Contains(%d) disagrees with the model", i, pid)
		}
	}
	if admits == 0 || admits == steps {
		t.Fatalf("%d admissions in %d steps: the sequence did not exercise both outcomes", admits, steps)
	}
}

// TestFullQueueAdmitAllocatesNothing: New makes every node the queue will
// use, so neither the first denial on an empty queue nor a long admit/deny
// sequence on a full one allocates.
func TestFullQueueAdmitAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("the race detector allocates on its own account")
	}
	const capacity = 512
	empty := []*Queue{New(capacity), New(capacity)} // AllocsPerRun's warm-up takes one
	if n := testing.AllocsPerRun(1, func() { empty[0].Admit(1); empty = empty[1:] }); n != 0 {
		t.Fatalf("the first admission on an empty queue allocated %.0f objects, want 0", n)
	}
	q := New(capacity)
	rng := uint64(1)
	run := func() {
		for i := 0; i < 100000; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			q.Admit((rng >> 33) % (4 * capacity))
		}
	}
	run() // fill the queue and exercise every way out of it
	if n := testing.AllocsPerRun(1, run); n != 0 {
		t.Fatalf("100000 admissions on a full queue allocated %.0f objects, want 0", n)
	}
}
