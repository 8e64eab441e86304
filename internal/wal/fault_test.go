package wal

import (
	"encoding/binary"
	"testing"

	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// TestScanBufferStatsCountsDamage stages a damaged buffer tail — the extent
// word covering a corrupt frame — and checks the scan reports it in the
// recovery stats instead of silently stopping.
func TestScanBufferStatsCountsDamage(t *testing.T) {
	m, pm, _ := newTestManager(t, 1<<14)
	c := vclock.New()
	for txn := uint64(1); txn <= 3; txn++ {
		if _, err := m.Append(c, &Record{Type: RecCommit, TxnID: txn}); err != nil {
			t.Fatal(err)
		}
	}

	// Garbage that decodes as a frame-sized extent with a lying checksum:
	// bodyLen = 60 (>= the record header), body all zeros.
	garbage := make([]byte, 8+60)
	garbage[0] = 60
	off := m.shards[0].bufOff
	pm.Write(c, off, garbage)
	pm.Persist(c, off, len(garbage))
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], uint64(off+int64(len(garbage))))
	pm.Write(c, 8, word[:])
	pm.Persist(c, 8, len(word))

	var st RecoveryStats
	recs := ScanBufferStats(c, pm, &st)
	if len(recs) != 3 {
		t.Fatalf("scanned %d records, want 3", len(recs))
	}
	if st.ChecksumMismatches != 1 {
		t.Errorf("ChecksumMismatches = %d, want 1", st.ChecksumMismatches)
	}
	if st.TruncatedTailBytes != len(garbage) {
		t.Errorf("TruncatedTailBytes = %d, want %d", st.TruncatedTailBytes, len(garbage))
	}
	if st.BufferRecords != 3 {
		t.Errorf("BufferRecords = %d, want 3", st.BufferRecords)
	}
}

// TestRecoverAfterCrashTornAppend kills the machine at a randomized write
// inside an Append stream (the crash-point write tears) and checks recovery
// keeps exactly the acknowledged commits: nothing acked is lost, nothing
// unacked materializes.
func TestRecoverAfterCrashTornAppend(t *testing.T) {
	walDev := device.New(device.NVMParams)
	inj := device.NewInjector(device.FaultConfig{Seed: 11})
	sw := device.NewCrashSwitch()
	inj.AttachCrash(sw)
	walDev.SetFaults(inj)
	pm := pmem.New(pmem.Options{Size: 1 << 14, Device: walDev, TrackCrashes: true})
	store := NewMemLog(nil)
	m, err := New(Options{Buffer: pm, Store: store})
	if err != nil {
		t.Fatal(err)
	}

	c := vclock.New()
	sw.Arm(25) // mid-stream: each append is two checked buffer writes
	acked := map[uint64]bool{}
	for txn := uint64(1); txn <= 20; txn++ {
		if _, err := m.Append(c, &Record{Type: RecBegin, TxnID: txn}); err != nil {
			break
		}
		after := make([]byte, 100)
		for i := range after {
			after[i] = byte(txn)
		}
		if _, err := m.Append(c, &Record{Type: RecUpdate, TxnID: txn, PageID: txn, After: after}); err != nil {
			break
		}
		if _, err := m.Append(c, &Record{Type: RecCommit, TxnID: txn}); err != nil {
			break
		}
		acked[txn] = true
	}
	if !sw.Tripped() {
		t.Fatal("crash switch never tripped")
	}
	if len(acked) == 0 {
		t.Fatal("no transaction committed before the crash point")
	}

	pm.Crash() // roll back unpersisted lines
	sw.Arm(0)  // reboot
	inj.Rearm(device.FaultConfig{Seed: 11})

	m2, rl, err := Recover(c, Options{Buffer: pm, Store: store}, newApplierMap())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	for txn := range acked {
		if !rl.Committed[txn] {
			t.Errorf("acknowledged commit of txn %d lost", txn)
		}
	}
	for txn := range rl.Committed {
		if !acked[txn] {
			t.Errorf("phantom commit of txn %d (append was never acknowledged)", txn)
		}
	}
	if m2.NextLSN() <= rl.MaxLSN {
		t.Errorf("NextLSN %d not past recovered MaxLSN %d", m2.NextLSN(), rl.MaxLSN)
	}
}

// TestRecoverTornFlushDuplicates tears a flush's SSD append on every attempt
// the retry policy allows (five partial batches land mid-file), re-appends it
// in full, and checks recovery resyncs past the damage and dedups the
// re-appended records — counting what it tolerated.
func TestRecoverTornFlushDuplicates(t *testing.T) {
	logDev := device.New(device.SSDParams)
	inj := device.NewInjector(device.FaultConfig{Seed: 21})
	logDev.SetFaults(inj)
	store := NewMemLog(logDev)
	pm := pmem.New(pmem.Options{Size: 1 << 16, TrackCrashes: true})
	m, err := New(Options{Buffer: pm, Store: store})
	if err != nil {
		t.Fatal(err)
	}

	c := vclock.New()
	for txn := uint64(1); txn <= 8; txn++ {
		after := make([]byte, 150)
		for i := range after {
			after[i] = byte(txn * 7)
		}
		if _, err := m.Append(c, &Record{Type: RecBegin, TxnID: txn}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Append(c, &Record{Type: RecUpdate, TxnID: txn, PageID: txn, After: after}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Append(c, &Record{Type: RecCommit, TxnID: txn}); err != nil {
			t.Fatal(err)
		}
	}

	inj.Rearm(device.FaultConfig{Seed: 21, TornWriteProb: 1})
	if err := m.Flush(c); err == nil {
		t.Fatal("torn flush reported success")
	}
	inj.Rearm(device.FaultConfig{Seed: 21})
	if err := m.Flush(c); err != nil {
		t.Fatalf("retried flush: %v", err)
	}

	pm.Crash()
	_, rl, err := Recover(c, Options{Buffer: pm, Store: store}, newApplierMap())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	for txn := uint64(1); txn <= 8; txn++ {
		if !rl.Committed[txn] {
			t.Errorf("txn %d lost across the torn flush", txn)
		}
	}
	seen := map[uint64]bool{}
	for _, rec := range rl.Records {
		if seen[rec.LSN] {
			t.Errorf("LSN %d survived twice after dedup", rec.LSN)
		}
		seen[rec.LSN] = true
	}
	st := rl.Stats
	if st.DuplicateLSNs == 0 {
		t.Error("no duplicate LSNs dropped; the torn prefix held no whole record (pick another seed)")
	}
	if st.ChecksumMismatches+st.SkippedBytes+st.TruncatedTailBytes == 0 {
		t.Error("no damage counted; the resync scan saw a clean file")
	}
	t.Logf("stats=%+v", st)
}

// TestDecodeOneClassifiesDamage is the frame checksum's contract with
// recovery: any single flipped bit in a frame's checksum word or body is
// damage (decodeCorrupt, which the resync scan skips past), while zeroed
// bytes where a frame would start are the clean end of the log
// (decodeShort), whatever the checksum of zeros happens to be.
func TestDecodeOneClassifiesDamage(t *testing.T) {
	rec := Record{
		LSN: 7, TxnID: 3, PrevLSN: 6, Type: RecUpdate, TableID: 1, PageID: 9, Slot: 4,
		Before: []byte("the image before"), After: []byte("the image after the write"),
	}
	frame := rec.encode(nil)
	if got, n, st := decodeOne(frame); st != decodeOK || n != len(frame) || got.LSN != rec.LSN || string(got.After) != string(rec.After) {
		t.Fatalf("intact frame decoded as status %d, %d of %d bytes, %+v", st, n, len(frame), got)
	}

	for bit := 4 * 8; bit < len(frame)*8; bit++ { // everything after the length word
		damaged := append([]byte(nil), frame...)
		damaged[bit/8] ^= 1 << (bit % 8)
		if _, n, st := decodeOne(damaged); st != decodeCorrupt || n != 0 {
			t.Fatalf("bit %d of byte %d flipped: status %d consuming %d bytes, want decodeCorrupt", bit%8, bit/8, st, n)
		}
	}

	for _, c := range []struct {
		name string
		b    []byte
	}{
		{"zeroed extent", make([]byte, len(frame))},
		{"zeroed length word before stale bytes", append(make([]byte, 4), frame[4:]...)},
		{"fewer bytes than a frame header", frame[:7]},
		{"frame cut short", frame[:len(frame)-1]},
	} {
		if _, n, st := decodeOne(c.b); st != decodeShort || n != 0 {
			t.Errorf("%s: status %d consuming %d bytes, want decodeShort", c.name, st, n)
		}
	}
	// A whole frame followed by a zeroed tail: one record, then a clean end.
	tail := append(append([]byte(nil), frame...), make([]byte, 64)...)
	if _, n, st := decodeOne(tail); st != decodeOK || n != len(frame) {
		t.Fatalf("frame before a zeroed tail: status %d consuming %d bytes", st, n)
	}
	if _, _, st := decodeOne(tail[len(frame):]); st != decodeShort {
		t.Fatalf("zeroed tail: status %d, want decodeShort", st)
	}
}
