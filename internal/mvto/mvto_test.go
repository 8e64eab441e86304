package mvto

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"github.com/spitfire-db/spitfire/internal/testutil"
)

// pageSim simulates one tuple slot on a page: the in-place version.
type pageSim struct {
	wts  uint64
	data []byte
}

func (p *pageSim) readWTS() uint64 { return p.wts }

func (p *pageSim) write(txn *Txn, newData []byte) func() ([]byte, error) {
	return func() ([]byte, error) {
		before := append([]byte(nil), p.data...)
		p.data = append([]byte(nil), newData...)
		p.wts = txn.TS
		return before, nil
	}
}

func (p *pageSim) read(t *testing.T, want string) func([]byte) error {
	return func(hist []byte) error {
		got := p.data
		if hist != nil {
			got = hist
		}
		if string(got) != want {
			t.Errorf("read %q, want %q", got, want)
		}
		return nil
	}
}

func TestReadYourOwnWrite(t *testing.T) {
	m := NewManager()
	p := &pageSim{data: []byte("v0")}
	txn := m.Begin()
	if err := m.Write(txn, 1, p.readWTS, p.write(txn, []byte("v1"))); err != nil {
		t.Fatal(err)
	}
	if err := m.Read(txn, 1, p.readWTS, p.read(t, "v1")); err != nil {
		t.Fatal(err)
	}
	m.Commit(txn)
	if c, _ := m.Stats(); c != 1 {
		t.Fatalf("commits = %d", c)
	}
}

func TestOlderReaderSeesHistory(t *testing.T) {
	m := NewManager()
	p := &pageSim{data: []byte("v0")}
	older := m.Begin() // ts 1
	writer := m.Begin()
	if err := m.Write(writer, 1, p.readWTS, p.write(writer, []byte("v1"))); err != nil {
		t.Fatal(err)
	}
	m.Commit(writer)
	// The page now holds v1 (wts 2); the older txn must see v0.
	if err := m.Read(older, 1, p.readWTS, p.read(t, "v0")); err != nil {
		t.Fatal(err)
	}
	// A new txn sees v1.
	newer := m.Begin()
	if err := m.Read(newer, 1, p.readWTS, p.read(t, "v1")); err != nil {
		t.Fatal(err)
	}
}

func TestReaderAbortsOnInflightOlderWriter(t *testing.T) {
	m := NewManager()
	p := &pageSim{data: []byte("v0")}
	writer := m.Begin()
	reader := m.Begin() // younger
	if err := m.Write(writer, 1, p.readWTS, p.write(writer, []byte("v1"))); err != nil {
		t.Fatal(err)
	}
	err := m.Read(reader, 1, p.readWTS, p.read(t, ""))
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("read against in-flight older writer: %v", err)
	}
}

func TestYoungerReaderBlocksOlderWriter(t *testing.T) {
	m := NewManager()
	p := &pageSim{data: []byte("v0")}
	writer := m.Begin() // older
	reader := m.Begin() // younger
	if err := m.Read(reader, 1, p.readWTS, p.read(t, "v0")); err != nil {
		t.Fatal(err)
	}
	err := m.Write(writer, 1, p.readWTS, p.write(writer, []byte("v1")))
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("write under younger read: %v", err)
	}
}

func TestWriteWriteConflict(t *testing.T) {
	m := NewManager()
	p := &pageSim{data: []byte("v0")}
	t1 := m.Begin()
	t2 := m.Begin()
	if err := m.Write(t1, 1, p.readWTS, p.write(t1, []byte("v1"))); err != nil {
		t.Fatal(err)
	}
	err := m.Write(t2, 1, p.readWTS, p.write(t2, []byte("v2")))
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("concurrent write allowed: %v", err)
	}
}

func TestStaleWriterAborts(t *testing.T) {
	m := NewManager()
	p := &pageSim{data: []byte("v0")}
	older := m.Begin()
	newer := m.Begin()
	if err := m.Write(newer, 1, p.readWTS, p.write(newer, []byte("v1"))); err != nil {
		t.Fatal(err)
	}
	m.Commit(newer)
	err := m.Write(older, 1, p.readWTS, p.write(older, []byte("v-stale")))
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("stale write allowed: %v", err)
	}
}

func TestAbortRestoresState(t *testing.T) {
	m := NewManager()
	p := &pageSim{data: []byte("v0")}
	txn := m.Begin()
	if err := m.Write(txn, 1, p.readWTS, p.write(txn, []byte("v1"))); err != nil {
		t.Fatal(err)
	}
	undos := m.AbortStart(txn)
	if len(undos) != 1 || string(undos[0].Before) != "v0" {
		t.Fatalf("undo set = %+v", undos)
	}
	// Engine restores.
	p.data = append([]byte(nil), undos[0].Before...)
	p.wts = undos[0].BeforeWTS
	m.AbortFinish(txn)

	// A fresh txn can now write again.
	fresh := m.Begin()
	if err := m.Write(fresh, 1, p.readWTS, p.write(fresh, []byte("v2"))); err != nil {
		t.Fatal(err)
	}
	if err := m.Read(fresh, 1, p.readWTS, p.read(t, "v2")); err != nil {
		t.Fatal(err)
	}
	if txn.State() != TxnAborted {
		t.Fatal("aborted txn state wrong")
	}
}

func TestDoubleWriteSameTupleKeepsFirstImage(t *testing.T) {
	m := NewManager()
	p := &pageSim{data: []byte("v0")}
	txn := m.Begin()
	if err := m.Write(txn, 1, p.readWTS, p.write(txn, []byte("v1"))); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(txn, 1, p.readWTS, p.write(txn, []byte("v2"))); err != nil {
		t.Fatal(err)
	}
	undos := m.AbortStart(txn)
	if len(undos) != 1 || string(undos[0].Before) != "v0" {
		t.Fatalf("rollback image = %+v, want the pre-transaction v0", undos)
	}
}

func TestGCDropsInvisibleVersions(t *testing.T) {
	m := NewManager()
	p := &pageSim{data: []byte("v0")}
	for i := 1; i <= 5; i++ {
		txn := m.Begin()
		if err := m.Write(txn, 1, p.readWTS, p.write(txn, []byte{byte('0' + i)})); err != nil {
			t.Fatal(err)
		}
		m.Commit(txn)
	}
	// No active transactions: every replaced version is unreachable.
	if dropped := m.GC(); dropped != 5 {
		t.Fatalf("GC dropped %d versions of a 5-deep chain", dropped)
	}
	if e := m.metaFor(1); e.history != nil {
		t.Fatal("a version outlived GC with no transaction active")
	}
}

func TestGCPreservesVisibleVersions(t *testing.T) {
	m := NewManager()
	p := &pageSim{data: []byte("v0")}
	older := m.Begin() // stays active; must keep seeing v0
	for i := 0; i < 3; i++ {
		txn := m.Begin()
		if err := m.Write(txn, 1, p.readWTS, p.write(txn, []byte("new"))); err != nil {
			t.Fatal(err)
		}
		m.Commit(txn)
	}
	m.GC()
	if err := m.Read(older, 1, p.readWTS, p.read(t, "v0")); err != nil {
		t.Fatalf("GC destroyed a visible version: %v", err)
	}
}

func TestConcurrentDisjointTuples(t *testing.T) {
	m := NewManager()
	const workers = 8
	pages := make([]*pageSim, workers)
	for i := range pages {
		pages[i] = &pageSim{data: []byte("v0")}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := pages[w]
			for i := 0; i < 500; i++ {
				txn := m.Begin()
				if err := m.Write(txn, uint64(w), p.readWTS, p.write(txn, []byte("vX"))); err != nil {
					m.AbortFinish(txn)
					continue
				}
				m.Commit(txn)
			}
		}(w)
	}
	wg.Wait()
	commits, _ := m.Stats()
	if commits != workers*500 {
		t.Fatalf("commits = %d, want %d (disjoint tuples never conflict)", commits, workers*500)
	}
}

func TestConcurrentSameTupleSerializes(t *testing.T) {
	m := NewManager()
	p := &pageSim{data: make([]byte, 8)}
	var mu sync.Mutex // guards the apply counter; mvto serializes page access
	applied := uint64(0)
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				txn := m.Begin()
				err := m.Write(txn, 7, p.readWTS, func() ([]byte, error) {
					before := append([]byte(nil), p.data...)
					v := binary.LittleEndian.Uint64(p.data)
					binary.LittleEndian.PutUint64(p.data, v+1)
					p.wts = txn.TS
					mu.Lock()
					applied++
					mu.Unlock()
					return before, nil
				})
				if err != nil {
					m.AbortFinish(txn)
					continue
				}
				m.Commit(txn)
			}
		}()
	}
	wg.Wait()
	commits, aborts := m.Stats()
	if commits == 0 {
		t.Fatal("no transaction ever committed under contention")
	}
	got := binary.LittleEndian.Uint64(p.data)
	if uint64(commits) != got {
		t.Fatalf("page counter %d != commits %d (lost or phantom update)", got, commits)
	}
	mu.Lock()
	a := applied
	mu.Unlock()
	if a != uint64(commits) {
		t.Fatalf("applies %d != commits %d", a, commits)
	}
	t.Logf("commits=%d aborts=%d", commits, aborts)
}

// TestWriteOwnsBeforeImage pins the ownership rule of Write: the slice apply
// returns is the version-store entry, not a copy of it. An older reader and
// the rollback are both served from that very memory, and a second write by
// the same transaction — whose apply returns another slice — replaces
// neither.
func TestWriteOwnsBeforeImage(t *testing.T) {
	m := NewManager()
	p := &pageSim{data: []byte("v0")}
	older := m.Begin()
	writer := m.Begin()

	var first []byte // what the first apply handed over
	err := m.Write(writer, 1, p.readWTS, func() ([]byte, error) {
		before, err := p.write(writer, []byte("v1"))()
		first = before
		return before, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(writer, 1, p.readWTS, p.write(writer, []byte("v2"))); err != nil {
		t.Fatal(err)
	}

	err = m.Read(older, 1, p.readWTS, func(hist []byte) error {
		if string(hist) != "v0" || &hist[0] != &first[0] {
			t.Errorf("older reader served %q (same memory: %v), want the handed-over v0 image", hist, hist != nil && &hist[0] == &first[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	undos := m.AbortStart(writer)
	if len(undos) != 1 || string(undos[0].Before) != "v0" || &undos[0].Before[0] != &first[0] {
		t.Fatalf("rollback image = %+v, want the handed-over v0 image", undos)
	}
	m.AbortFinish(writer)
}

// TestLargeWriteSetSwitchesToIndex crosses writtenScanMax: rewriting every
// tuple of a large write set must still park exactly one before-image each.
func TestLargeWriteSetSwitchesToIndex(t *testing.T) {
	m := NewManager()
	const tuples = 3 * writtenScanMax
	pages := make([]*pageSim, tuples)
	for i := range pages {
		pages[i] = &pageSim{data: []byte("v0")}
	}
	txn := m.Begin()
	for round := 0; round < 2; round++ {
		for i, p := range pages {
			if err := m.Write(txn, uint64(i), p.readWTS, p.write(txn, []byte("v1"))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if txn.written == nil || len(txn.Writes()) != tuples {
		t.Fatalf("write set has %d entries (indexed: %v), want %d indexed", len(txn.Writes()), txn.written != nil, tuples)
	}
	for _, u := range m.AbortStart(txn) {
		if string(u.Before) != "v0" {
			t.Fatalf("rollback image of tuple %d = %q, want v0", u.RID, u.Before)
		}
	}
	m.AbortFinish(txn)
}

// TestMinActiveTSTracksTheActiveList begins and finishes transactions in
// mixed order, across and within active-list shards.
func TestMinActiveTSTracksTheActiveList(t *testing.T) {
	m := NewManager()
	txns := make([]*Txn, 3*activeShards)
	for i := range txns {
		txns[i] = m.Begin()
	}
	// Finish all but the oldest and one in the middle, newest first, then
	// the even ones, so heads, tails and interior nodes all get unlinked.
	keep := map[int]bool{0: true, activeShards + 7: true}
	for pass := 0; pass < 2; pass++ {
		for i := len(txns) - 1; i >= 0; i-- {
			if keep[i] || i%2 != pass {
				continue
			}
			m.Commit(txns[i])
			m.Commit(txns[i]) // finishing twice must not unlink a neighbor
		}
	}
	if got := m.MinActiveTS(); got != txns[0].TS {
		t.Fatalf("MinActiveTS = %d, want the oldest active %d", got, txns[0].TS)
	}
	m.Commit(txns[0])
	if got, want := m.MinActiveTS(), txns[activeShards+7].TS; got != want {
		t.Fatalf("MinActiveTS = %d, want %d", got, want)
	}
	m.AbortFinish(txns[activeShards+7])
	if got, want := m.MinActiveTS(), txns[len(txns)-1].TS+1; got != want {
		t.Fatalf("MinActiveTS with nothing active = %d, want the next timestamp %d", got, want)
	}
}

// TestBeginCommitAllocations is the allocation budget of an empty
// transaction: the Txn object and nothing per-transaction beside it (no
// write-set map, no active-table node).
func TestBeginCommitAllocations(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := NewManager()
	if n := testing.AllocsPerRun(1000, func() { m.Commit(m.Begin()) }); n > 2 {
		t.Fatalf("Begin+Commit allocates %.1f objects, budget 2", n)
	}
}
