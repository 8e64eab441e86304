package wal

import (
	"bytes"
	"sync"
	"testing"

	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

func newTestManager(t *testing.T, bufSize int64) (*Manager, *pmem.PMem, *MemLog) {
	t.Helper()
	pm := pmem.New(pmem.Options{Size: bufSize, TrackCrashes: true})
	store := NewMemLog(nil)
	m, err := New(Options{Buffer: pm, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return m, pm, store
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rec := Record{
		LSN: 42, TxnID: 7, PrevLSN: 40, Type: RecUpdate,
		TableID: 3, PageID: 99, Slot: 12,
		Before: []byte("old-bytes"), After: []byte("new-bytes!"),
	}
	frame := rec.encode(nil)
	got, n, status := decodeOne(frame)
	if status != decodeOK || n != len(frame) {
		t.Fatalf("decode failed: status=%d n=%d len=%d", status, n, len(frame))
	}
	if got.LSN != rec.LSN || got.TxnID != rec.TxnID || got.PrevLSN != rec.PrevLSN ||
		got.Type != rec.Type || got.TableID != rec.TableID || got.PageID != rec.PageID ||
		got.Slot != rec.Slot || !bytes.Equal(got.Before, rec.Before) || !bytes.Equal(got.After, rec.After) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, rec)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	rec := Record{LSN: 1, Type: RecCommit}
	frame := rec.encode(nil)
	frame[10] ^= 0xFF
	if _, _, status := decodeOne(frame); status != decodeCorrupt {
		t.Fatalf("corrupted frame: status=%d, want decodeCorrupt", status)
	}
	if _, _, status := decodeOne(frame[:4]); status != decodeShort {
		t.Fatalf("short frame: status=%d, want decodeShort", status)
	}
	if _, _, status := decodeOne(make([]byte, 64)); status != decodeShort {
		t.Fatalf("zero frame: status=%d, want decodeShort", status)
	}
}

func TestAppendAssignsMonotonicLSNs(t *testing.T) {
	m, _, _ := newTestManager(t, 1<<16)
	c := vclock.New()
	var last uint64
	for i := 0; i < 100; i++ {
		lsn, err := m.Append(c, &Record{TxnID: 1, Type: RecUpdate, After: []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		if lsn <= last {
			t.Fatalf("LSN %d not greater than %d", lsn, last)
		}
		last = lsn
	}
}

func TestThresholdFlushMovesRecordsToSSD(t *testing.T) {
	m, _, store := newTestManager(t, 1<<14)
	c := vclock.New()
	payload := make([]byte, 512)
	for i := 0; i < 32; i++ {
		if _, err := m.Append(c, &Record{TxnID: 1, Type: RecUpdate, After: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if store.Len() == 0 {
		t.Fatal("threshold never flushed the buffer to SSD")
	}
	if got := m.LogBytes(); got != int64(store.Len()) {
		t.Fatalf("LogBytes = %d, store holds %d", got, store.Len())
	}
	if _, flushes, _ := m.Stats(); flushes == 0 {
		t.Fatal("no flushes counted")
	}
}

func TestScanBufferFindsPersistedTail(t *testing.T) {
	m, pm, _ := newTestManager(t, 1<<16)
	c := vclock.New()
	for i := 0; i < 5; i++ {
		if _, err := m.Append(c, &Record{TxnID: 9, Type: RecUpdate, After: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	pm.Crash() // appends were persisted; the tail must survive
	recs := ScanBuffer(c, pm)
	if len(recs) != 5 {
		t.Fatalf("scan found %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.After[0] != byte(i) {
			t.Fatalf("record %d has payload %d", i, r.After[0])
		}
	}
}

func TestConcurrentAppends(t *testing.T) {
	m, _, store := newTestManager(t, 1<<18)
	var wg sync.WaitGroup
	const workers, each = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := vclock.New()
			for i := 0; i < each; i++ {
				if _, err := m.Append(c, &Record{TxnID: uint64(w), Type: RecUpdate, After: []byte{byte(w)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c := vclock.New()
	if err := m.Flush(c); err != nil {
		t.Fatal(err)
	}
	raw, err := store.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	n := 0
	for len(raw) > 0 {
		rec, sz, status := decodeOne(raw)
		if status != decodeOK {
			t.Fatal("log contains a torn record")
		}
		if seen[rec.LSN] {
			t.Fatalf("duplicate LSN %d", rec.LSN)
		}
		seen[rec.LSN] = true
		raw = raw[sz:]
		n++
	}
	if n != workers*each {
		t.Fatalf("log holds %d records, want %d", n, workers*each)
	}
}

// applierMap applies redo/undo to an in-memory "database" of slot values,
// with per-slot LSNs for idempotence.
type applierMap struct {
	vals map[uint64][]byte
	lsns map[uint64]uint64
}

func newApplierMap() *applierMap {
	return &applierMap{vals: map[uint64][]byte{}, lsns: map[uint64]uint64{}}
}

func (a *applierMap) key(rec *Record) uint64 { return rec.PageID<<16 | uint64(rec.Slot) }

func (a *applierMap) ApplyRedo(c *vclock.Clock, rec *Record) error {
	k := a.key(rec)
	if a.lsns[k] >= rec.LSN {
		return nil
	}
	a.vals[k] = append([]byte(nil), rec.After...)
	a.lsns[k] = rec.LSN
	return nil
}

func (a *applierMap) ApplyUndo(c *vclock.Clock, rec *Record) error {
	k := a.key(rec)
	a.vals[k] = append([]byte(nil), rec.Before...)
	return nil
}

func TestRecoverRedoesCommittedAndUndoesLosers(t *testing.T) {
	pm := pmem.New(pmem.Options{Size: 1 << 16, TrackCrashes: true})
	store := NewMemLog(nil)
	m, err := New(Options{Buffer: pm, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	c := vclock.New()

	// Txn 1 commits an update; txn 2 updates but never commits.
	appendAll := func(recs ...*Record) {
		for _, r := range recs {
			if _, err := m.Append(c, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendAll(
		&Record{TxnID: 1, Type: RecBegin},
		&Record{TxnID: 1, Type: RecUpdate, PageID: 10, Slot: 1, Before: []byte("A0"), After: []byte("A1")},
		&Record{TxnID: 1, Type: RecCommit},
		&Record{TxnID: 2, Type: RecBegin},
		&Record{TxnID: 2, Type: RecUpdate, PageID: 10, Slot: 2, Before: []byte("B0"), After: []byte("B1")},
	)

	pm.Crash()

	app := newApplierMap()
	// Simulate the crash-time page state: both updates had been applied.
	app.vals[10<<16|1] = []byte("A1")
	app.vals[10<<16|2] = []byte("B1")

	m2, rl, err := Recover(c, Options{Buffer: pm, Store: store}, app)
	if err != nil {
		t.Fatal(err)
	}
	if !rl.Committed[1] {
		t.Fatal("txn 1 not recognized as committed")
	}
	if !rl.Losers[2] {
		t.Fatal("txn 2 not recognized as a loser")
	}
	if got := string(app.vals[10<<16|1]); got != "A1" {
		t.Fatalf("committed value = %q, want A1", got)
	}
	if got := string(app.vals[10<<16|2]); got != "B0" {
		t.Fatalf("loser value = %q, want rolled back to B0", got)
	}
	// The new manager resumes past the recovered LSNs.
	if m2.NextLSN() <= rl.MaxLSN {
		t.Fatalf("NextLSN %d not past recovered max %d", m2.NextLSN(), rl.MaxLSN)
	}
}

func TestRecoverSkipsRolledBackTransactions(t *testing.T) {
	pm := pmem.New(pmem.Options{Size: 1 << 16, TrackCrashes: true})
	store := NewMemLog(nil)
	m, _ := New(Options{Buffer: pm, Store: store})
	c := vclock.New()
	// Txn 3 updated and aborted (rollback already applied in place).
	for _, r := range []*Record{
		{TxnID: 3, Type: RecBegin},
		{TxnID: 3, Type: RecUpdate, PageID: 5, Slot: 0, Before: []byte("X0"), After: []byte("X1")},
		{TxnID: 3, Type: RecAbort},
	} {
		if _, err := m.Append(c, r); err != nil {
			t.Fatal(err)
		}
	}
	pm.Crash()
	app := newApplierMap()
	app.vals[5<<16|0] = []byte("X0") // rollback happened before the crash
	_, rl, err := Recover(c, Options{Buffer: pm, Store: store}, app)
	if err != nil {
		t.Fatal(err)
	}
	if !rl.Aborted[3] || rl.Losers[3] {
		t.Fatalf("txn 3 misclassified: %+v", rl)
	}
	if got := string(app.vals[5<<16|0]); got != "X0" {
		t.Fatalf("aborted txn's update redone: %q", got)
	}
}

func TestTruncate(t *testing.T) {
	m, _, store := newTestManager(t, 1<<16)
	c := vclock.New()
	if _, err := m.Append(c, &Record{TxnID: 1, Type: RecCommit}); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(c); err != nil {
		t.Fatal(err)
	}
	if store.Len() == 0 || m.LogBytes() != int64(store.Len()) {
		t.Fatalf("after flush: store holds %d bytes, LogBytes = %d", store.Len(), m.LogBytes())
	}
	if err := m.Truncate(c); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 || m.LogBytes() != 0 {
		t.Fatalf("after truncate: store holds %d bytes, LogBytes = %d", store.Len(), m.LogBytes())
	}
	raw, _ := store.ReadAll(c)
	if len(raw) != 0 {
		t.Fatal("ReadAll after truncate returned data")
	}
}

func TestCommitDurability(t *testing.T) {
	// The core durability property: a commit record persisted in the NVM
	// buffer survives a crash even though it never reached SSD.
	m, pm, store := newTestManager(t, 1<<16)
	c := vclock.New()
	if _, err := m.Append(c, &Record{TxnID: 77, Type: RecBegin}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append(c, &Record{TxnID: 77, Type: RecUpdate, PageID: 1, Before: []byte("a"), After: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append(c, &Record{TxnID: 77, Type: RecCommit}); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Skip("buffer flushed early; durability path not exercised")
	}
	pm.Crash()
	app := newApplierMap()
	_, rl, err := Recover(c, Options{Buffer: pm, Store: store}, app)
	if err != nil {
		t.Fatal(err)
	}
	if !rl.Committed[77] {
		t.Fatal("commit persisted only in the NVM buffer was lost")
	}
	if got := string(app.vals[1<<16|0]); got != "b" {
		t.Fatalf("committed after-image not redone: %q", got)
	}
}
