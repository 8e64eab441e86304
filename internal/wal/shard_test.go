package wal

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

func newShardedManager(t *testing.T, bufSize int64, shards int) (*Manager, *pmem.PMem, *MemLog) {
	t.Helper()
	pm := pmem.New(pmem.Options{Size: bufSize, TrackCrashes: true})
	store := NewMemLog(nil)
	m, err := New(Options{Buffer: pm, Store: store, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return m, pm, store
}

func TestShardRegionsLayout(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		size := int64(1 << 18)
		regs := shardRegions(size, n)
		if len(regs) != n {
			t.Fatalf("n=%d: got %d regions", n, len(regs))
		}
		if regs[0][0] != 0 {
			t.Fatalf("n=%d: first region starts at %d", n, regs[0][0])
		}
		if regs[n-1][1] != size {
			t.Fatalf("n=%d: last region ends at %d, want %d", n, regs[n-1][1], size)
		}
		for i, r := range regs {
			if r[0]%pmem.CacheLineSize != 0 {
				t.Fatalf("n=%d: region %d base %d not cache-line aligned", n, i, r[0])
			}
			if i > 0 && r[0] != regs[i-1][1] {
				t.Fatalf("n=%d: region %d base %d != previous limit %d", n, i, r[0], regs[i-1][1])
			}
		}
	}
	// n=1 must be the original single-buffer layout exactly.
	regs := shardRegions(12345, 1)
	if regs[0][0] != 0 || regs[0][1] != 12345 {
		t.Fatalf("single-shard region = %v, want [0, 12345)", regs[0])
	}
}

func TestShardedAppendsSpreadAcrossShards(t *testing.T) {
	m, _, _ := newShardedManager(t, 1<<18, 4)
	if m.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", m.Shards())
	}
	clocks := make([]*vclock.Clock, 4)
	for i := range clocks {
		clocks[i] = vclock.New()
		if _, err := m.Append(clocks[i], &Record{TxnID: uint64(i), Type: RecUpdate, After: []byte{1}}); err != nil {
			t.Fatal(err)
		}
	}
	// Round-robin affinity: four fresh clocks land on four distinct shards,
	// and a clock stays pinned to its shard.
	seen := map[*walShard]bool{}
	for _, c := range clocks {
		seen[m.shardFor(c)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("4 clocks landed on %d shards, want 4", len(seen))
	}
	for _, c := range clocks {
		if m.shardFor(c) != m.shardFor(c) {
			t.Fatal("shard affinity not sticky")
		}
	}
}

func TestShardedConcurrentAppends(t *testing.T) {
	m, _, store := newShardedManager(t, 1<<18, 4)
	var wg sync.WaitGroup
	const workers, each = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := vclock.New()
			for i := 0; i < each; i++ {
				if _, err := m.Append(c, &Record{TxnID: uint64(w), Type: RecCommit, After: []byte{byte(w)}}); err != nil {
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
	appends, _, commits := m.Stats()
	if appends != workers*each || commits != workers*each {
		t.Fatalf("Stats = %d appends / %d commits, want %d / %d", appends, commits, workers*each, workers*each)
	}
}

func TestGroupCommitWatermarkAdvances(t *testing.T) {
	m, _, _ := newShardedManager(t, 1<<16, 2)
	c := vclock.New()
	var last uint64
	for i := 0; i < 20; i++ {
		lsn, err := m.Append(c, &Record{TxnID: 1, Type: RecCommit, After: make([]byte, 64)})
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	if wm := m.DurableLSN(); wm != 0 {
		// Below the threshold nothing flushes; a non-zero watermark would
		// mean a flush ran early.
		t.Fatalf("watermark %d before any flush", wm)
	}
	if err := m.Flush(c); err != nil {
		t.Fatal(err)
	}
	if wm := m.DurableLSN(); wm < last {
		t.Fatalf("watermark %d below flushed LSN %d", wm, last)
	}
}

func TestGroupCommitFollowerSkipsFlush(t *testing.T) {
	// Threshold of 1 byte: every append wants a flush. The combined flush
	// drains both shards at once, so a second worker whose LSN is under the
	// leader's watermark must skip instead of flushing an empty buffer.
	pm := pmem.New(pmem.Options{Size: 1 << 16})
	store := NewMemLog(nil)
	m, err := New(Options{Buffer: pm, Store: store, Shards: 2, FlushThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := vclock.New(), vclock.New()
	if _, err := m.Append(c1, &Record{TxnID: 1, Type: RecUpdate, After: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append(c2, &Record{TxnID: 2, Type: RecUpdate, After: []byte{2}}); err != nil {
		t.Fatal(err)
	}
	_, flushes, _ := m.Stats()
	if flushes == 0 {
		t.Fatal("threshold of 1 byte never flushed")
	}
	// Both records must have reached the store despite any skipped flushes.
	raw, err := store.ReadAll(c1)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for len(raw) > 0 {
		_, sz, status := decodeOne(raw)
		if status != decodeOK {
			t.Fatal("torn record in store")
		}
		raw = raw[sz:]
		n++
	}
	if got := int(flushes); got > 2 {
		t.Fatalf("%d flushes for 2 appends, watermark skip not working", got)
	}
	if n != 2 {
		t.Fatalf("store holds %d records, want 2", n)
	}
}

func TestShardedRecoveryMergesByLSN(t *testing.T) {
	pm := pmem.New(pmem.Options{Size: 1 << 16, TrackCrashes: true})
	store := NewMemLog(nil)
	opt := Options{Buffer: pm, Store: store, Shards: 4}
	m, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave appends from four worker clocks so the shard tails hold
	// interleaved LSN ranges.
	clocks := [4]*vclock.Clock{vclock.New(), vclock.New(), vclock.New(), vclock.New()}
	for txn := uint64(1); txn <= 4; txn++ {
		c := clocks[txn-1]
		appendAll := func(recs ...*Record) {
			for _, r := range recs {
				if _, err := m.Append(c, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		appendAll(
			&Record{TxnID: txn, Type: RecBegin},
			&Record{TxnID: txn, Type: RecUpdate, PageID: 10, Slot: uint16(txn), Before: []byte("old"), After: []byte("new")},
		)
	}
	for txn := uint64(1); txn <= 3; txn++ {
		if _, err := m.Append(clocks[txn-1], &Record{TxnID: txn, Type: RecCommit}); err != nil {
			t.Fatal(err)
		}
	}

	pm.Crash()

	app := newApplierMap()
	for txn := uint64(1); txn <= 4; txn++ {
		app.vals[10<<16|uint64(uint16(txn))] = []byte("new")
	}
	m2, rl, err := Recover(clocks[0], opt, app)
	if err != nil {
		t.Fatal(err)
	}
	for txn := uint64(1); txn <= 3; txn++ {
		if !rl.Committed[txn] {
			t.Fatalf("txn %d not recognized as committed", txn)
		}
	}
	if !rl.Losers[4] {
		t.Fatal("txn 4 not recognized as a loser")
	}
	if got := string(app.vals[10<<16|4]); got != "old" {
		t.Fatalf("loser value = %q, want rolled back to old", got)
	}
	// The merge must deliver the records in strict LSN order with no gaps
	// introduced by the per-shard scans.
	for i := 1; i < len(rl.Records); i++ {
		if rl.Records[i].LSN <= rl.Records[i-1].LSN {
			t.Fatalf("records not LSN-sorted at %d: %d then %d", i, rl.Records[i-1].LSN, rl.Records[i].LSN)
		}
	}
	if m2.NextLSN() <= rl.MaxLSN {
		t.Fatalf("NextLSN %d not past recovered max %d", m2.NextLSN(), rl.MaxLSN)
	}
}

func TestShardedRecoveryIgnoresTornShardTails(t *testing.T) {
	pm := pmem.New(pmem.Options{Size: 1 << 16, TrackCrashes: true})
	store := NewMemLog(nil)
	opt := Options{Buffer: pm, Store: store, Shards: 2}
	m, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := vclock.New(), vclock.New()
	if _, err := m.Append(c1, &Record{TxnID: 1, Type: RecCommit}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append(c2, &Record{TxnID: 2, Type: RecCommit}); err != nil {
		t.Fatal(err)
	}
	// Tear shard 1's tail: garbage bytes covered by the extent word, the
	// signature of a crash mid-append on that shard.
	sh := m.shardFor(c2)
	garbage := make([]byte, 8+60)
	garbage[0] = 60
	pm.Write(c2, sh.bufOff, garbage)
	pm.Persist(c2, sh.bufOff, len(garbage))
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], uint64(sh.bufOff+int64(len(garbage))))
	pm.Write(c2, sh.base+8, word[:])
	pm.Persist(c2, sh.base+8, len(word))

	pm.Crash()

	_, rl, err := Recover(c1, opt, newApplierMap())
	if err != nil {
		t.Fatal(err)
	}
	if !rl.Committed[1] || !rl.Committed[2] {
		t.Fatalf("committed txns lost: %v", rl.Committed)
	}
	if rl.Stats.ChecksumMismatches == 0 {
		t.Fatal("torn shard tail not counted as damage")
	}
	if rl.Stats.TruncatedTailBytes != len(garbage) {
		t.Fatalf("TruncatedTailBytes = %d, want %d", rl.Stats.TruncatedTailBytes, len(garbage))
	}
}

func TestNewRejectsUndersizedShardedBuffer(t *testing.T) {
	pm := pmem.New(pmem.Options{Size: 4096})
	_, err := New(Options{Buffer: pm, Store: NewMemLog(nil), Shards: 8})
	if err == nil {
		t.Fatal("8 shards over 4 KiB accepted; each region would be under the minimum")
	}
}

func TestShardCountClamped(t *testing.T) {
	pm := pmem.New(pmem.Options{Size: 1 << 20})
	m, err := New(Options{Buffer: pm, Store: NewMemLog(nil), Shards: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards() != MaxShards {
		t.Fatalf("Shards() = %d, want clamp to %d", m.Shards(), MaxShards)
	}
	m, err = New(Options{Buffer: pm, Store: NewMemLog(nil), Shards: -3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", m.Shards())
	}
}

// TestWorkerIdentityLeavesNoState appends once from each of 10k short-lived
// worker clocks to a 4-shard log and checks the manager remembers none of
// them (every clock becomes collectable) while consecutive workers still
// land on consecutive shards.
func TestWorkerIdentityLeavesNoState(t *testing.T) {
	const workers = 10000
	m, _, _ := newShardedManager(t, 1<<20, 4)
	var collected atomic.Int64
	var prev *walShard
	for i := 0; i < workers; i++ {
		c := vclock.New()
		runtime.SetFinalizer(c, func(*vclock.Clock) { collected.Add(1) })
		sh := m.shardFor(c)
		if sh == prev {
			t.Fatalf("workers %d and %d landed on the same shard", i-1, i)
		}
		prev = sh
		if _, err := m.Append(c, &Record{TxnID: uint64(i), Type: RecUpdate, After: []byte{1}}); err != nil {
			t.Fatal(err)
		}
	}
	for try := 0; try < 50 && collected.Load() < workers-1; try++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got < workers-1 {
		t.Fatalf("only %d of %d dropped worker clocks were collected: the WAL retains per-worker state", got, workers)
	}
}
