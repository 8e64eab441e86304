package mvto

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// overwrite commits one transaction that writes data over tuple rid.
func overwrite(t *testing.T, m *Manager, rid uint64, p *pageSim, data string) {
	t.Helper()
	txn := m.Begin()
	if err := m.Write(txn, rid, p.readWTS, p.write(txn, []byte(data))); err != nil {
		t.Fatal(err)
	}
	m.Commit(txn)
}

func newPages(n int) []*pageSim {
	pages := make([]*pageSim, n)
	for i := range pages {
		pages[i] = &pageSim{data: []byte("v0")}
	}
	return pages
}

// TestVersionStoreForgets: with no reader to hold anything back, the version
// store never holds more than one reclaim batch however many commits pass —
// including each tuple's last replaced version.
func TestVersionStoreForgets(t *testing.T) {
	m := NewManager()
	pages := newPages(1000)
	for i := 0; i < 100_000; i++ {
		rid := uint64(i % len(pages))
		overwrite(t, m, rid, pages[rid], "new")
		if got := m.Retained(); got > reclaimBatch {
			t.Fatalf("after %d commits the version store parks %d versions, more than a reclaim batch of %d", i+1, got, reclaimBatch)
		}
	}
	m.GC()
	if got := m.Retained(); got != 0 {
		t.Fatalf("%d versions parked after GC with no transaction active", got)
	}
	for rid, p := range pages {
		if e := m.metaFor(uint64(rid)); e.history != nil {
			t.Fatalf("tuple %d keeps a version (wts %d) nobody can read; in place is wts %d", rid, e.history.wts, p.wts)
		}
	}
}

// TestReaderHoldsBackReclamation: versions an active transaction can still
// read stay however many batches of commits go by, and go once it finishes.
func TestReaderHoldsBackReclamation(t *testing.T) {
	m := NewManager()
	pages := newPages(1000)
	reader := m.Begin()
	for i := 0; i < 10_000; i++ {
		rid := uint64(i % len(pages))
		overwrite(t, m, rid, pages[rid], "new")
	}
	if got := m.Retained(); got != 10_000 {
		t.Fatalf("Retained = %d with a reader older than all 10000 writes, want every one kept", got)
	}
	for rid, p := range pages {
		if err := m.Read(reader, uint64(rid), p.readWTS, p.read(t, "v0")); err != nil {
			t.Fatalf("tuple %d: %v", rid, err)
		}
	}
	m.Commit(reader)
	m.GC()
	if got := m.Retained(); got != 0 {
		t.Fatalf("%d versions still parked after the reader finished", got)
	}
}

// TestReclaimSparesInFlightWriter: a reclamation pass over a tuple that has
// a writer in flight must leave the writer's rollback image alone.
func TestReclaimSparesInFlightWriter(t *testing.T) {
	m := NewManager()
	p := &pageSim{data: []byte("v0")}
	overwrite(t, m, 1, p, "v1")
	overwrite(t, m, 1, p, "v2")

	writer := m.Begin()
	if err := m.Write(writer, 1, p.readWTS, p.write(writer, []byte("v3"))); err != nil {
		t.Fatal(err)
	}
	// The writer is the oldest active transaction, so both retired writes
	// are below MinActiveTS and the pass cuts the chain right under the
	// image the writer parked.
	if dropped := m.GC(); dropped != 2 {
		t.Fatalf("GC dropped %d versions, want v0 and v1", dropped)
	}
	undos := m.AbortStart(writer)
	if len(undos) != 1 || string(undos[0].Before) != "v2" {
		t.Fatalf("rollback image after a reclamation pass = %+v, want v2", undos)
	}
	p.data, p.wts = undos[0].Before, undos[0].BeforeWTS
	m.AbortFinish(writer)

	check := m.Begin()
	if err := m.Read(check, 1, p.readWTS, p.read(t, "v2")); err != nil {
		t.Fatal(err)
	}
	m.Commit(check)
	if m.GC(); m.Retained() != 0 {
		t.Fatalf("Retained = %d after the abort, want 0", m.Retained())
	}
	if e := m.metaFor(1); e.history != nil {
		t.Fatal("the aborted writer's image is still on the chain")
	}
}

// TestReclaimWaitsBehindAYoungerCommit: a shard's queue is in commit order,
// so an old write queued behind one that cannot go yet goes in a later pass
// — never early, never lost.
func TestReclaimWaitsBehindAYoungerCommit(t *testing.T) {
	m := NewManager()
	pa, pb := &pageSim{data: []byte("a0")}, &pageSim{data: []byte("b0")}
	// The hint that picks a shard repeats every activeShards starts, so
	// these two transactions finish on the same queue.
	old := m.Begin()
	reader := m.Begin()
	for i := 2; i < activeShards; i++ {
		m.Commit(m.Begin())
	}
	young := m.Begin()
	if old.shard != young.shard {
		t.Fatalf("old and young landed on shards %d and %d", old.shard, young.shard)
	}
	if err := m.Write(young, 2, pb.readWTS, pb.write(young, []byte("b1"))); err != nil {
		t.Fatal(err)
	}
	m.Commit(young) // queued first, and the reader is older: must stay
	if err := m.Write(old, 1, pa.readWTS, pa.write(old, []byte("a1"))); err != nil {
		t.Fatal(err)
	}
	m.Commit(old) // older than the reader, but queued behind young

	if dropped := m.GC(); dropped != 0 {
		t.Fatalf("GC dropped %d versions past a write the reader can still see behind", dropped)
	}
	if err := m.Read(reader, 2, pb.readWTS, pb.read(t, "b0")); err != nil {
		t.Fatal(err)
	}
	m.Commit(reader)
	if dropped := m.GC(); dropped != 2 || m.Retained() != 0 {
		t.Fatalf("after the reader finished GC dropped %d (retained %d), want both versions gone", dropped, m.Retained())
	}
}

// TestStartDrawsItsTimestampUnderAShardMutex is the interleaving behind a
// spurious "no version visible": a transaction that has drawn its timestamp
// but is on no active list yet is invisible to MinActiveTS, and a
// reclamation pass in that window drops the versions it is about to read.
// MinActiveTS reads the counter and then takes every shard's mutex, so the
// window is closed exactly when no timestamp is drawn outside those
// mutexes: with all of them held here, a starting transaction must not move
// the counter.
func TestStartDrawsItsTimestampUnderAShardMutex(t *testing.T) {
	m := NewManager()
	p := &pageSim{data: []byte("v0")}
	for i := range m.active {
		m.active[i].mu.Lock()
	}
	unlock := func() {
		for i := range m.active {
			m.active[i].mu.Unlock()
		}
	}
	next := m.nextTS.Load()
	started := make(chan *Txn)
	go func() { started <- m.Begin() }()
	for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline); runtime.Gosched() {
		if m.nextTS.Load() != next {
			unlock()
			<-started
			t.Fatal("Start drew its timestamp while holding no shard mutex: a concurrent MinActiveTS returns a value above it")
		}
	}
	unlock()
	reader := <-started

	// What the window used to cost: a commit and a reclamation pass later,
	// the reader still finds the version it is entitled to.
	overwrite(t, m, 1, p, "v1")
	if got := m.MinActiveTS(); got != reader.TS {
		t.Fatalf("MinActiveTS = %d with transaction %d active", got, reader.TS)
	}
	m.GC()
	if err := m.Read(reader, 1, p.readWTS, p.read(t, "v0")); err != nil {
		if errors.Is(err, ErrConflict) {
			t.Fatalf("the version the reader needs was reclaimed: %v", err)
		}
		t.Fatal(err)
	}
	m.Commit(reader)
}

// TestConcurrentReclaimKeepsEveryVisibleVersion runs writers (whose commits
// trigger reclamation passes) against readers that start at arbitrary
// moments. A reader may lose to an in-flight older writer; it must never
// find that the version it is entitled to has been reclaimed.
func TestConcurrentReclaimKeepsEveryVisibleVersion(t *testing.T) {
	m := NewManager()
	const writers, readers, perWriter = 4, 2, 16
	pages := newPages(writers * perWriter)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				txn := m.Begin()
				for rid, p := range pages {
					err := m.Read(txn, uint64(rid), p.readWTS, func([]byte) error { return nil })
					if err != nil && strings.Contains(err.Error(), "no version") {
						t.Errorf("reader %d: %v", txn.TS, err)
					}
				}
				m.Commit(txn)
			}
		}()
	}
	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < 3*reclaimBatch; i++ {
				rid := uint64(w*perWriter + i%perWriter)
				txn := m.Begin()
				p := pages[rid]
				if err := m.Write(txn, rid, p.readWTS, p.write(txn, []byte("new"))); err != nil {
					// A younger reader got there first: nothing was applied.
					m.AbortFinish(txn)
					continue
				}
				m.Commit(txn)
			}
		}(w)
	}
	writing.Wait()
	close(stop)
	wg.Wait()
	if m.GC(); m.Retained() != 0 {
		t.Fatalf("Retained = %d with nothing active", m.Retained())
	}
}
