package wal

import (
	"encoding/binary"
	"testing"

	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// FuzzRecoverShards drives a sharded WAL through a byte-coded op script —
// appends from several worker clocks, forced flushes, torn shard tails, and
// garbage injected into the SSD log — then crashes and recovers. Recovery
// must never error or panic, and the merged log must come back in strict
// LSN order with every pre-damage commit intact.
//
// Script format: byte 0 picks the shard count (1–4); each following byte is
// one op — low 3 bits select append/flush/tear/garbage, high bits pick the
// worker and payload size.
func FuzzRecoverShards(f *testing.F) {
	f.Add([]byte{1, 0x10, 0x21, 0x32, 0x06})             // single shard, appends + flush
	f.Add([]byte{3, 0x10, 0x21, 0x32, 0x43, 0x07})       // 4 shards, appends + torn tail
	f.Add([]byte{2, 0x05, 0x16, 0x27, 0x06, 0x15, 0x07}) // flush-heavy with damage
	f.Add([]byte{0})                                     // no ops at all
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		nShards := 1 + int(script[0])%4
		pm := pmem.New(pmem.Options{Size: 1 << 16, TrackCrashes: true})
		store := NewMemLog(nil)
		opt := Options{Buffer: pm, Store: store, Shards: nShards}
		m, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		clocks := [3]*vclock.Clock{vclock.New(), vclock.New(), vclock.New()}
		committed := map[uint64]bool{} // txns whose commit was acked pre-damage
		damaged := false               // script injected damage after this point
		nextTxn := uint64(1)
		for _, b := range script[1:] {
			c := clocks[int(b>>3)%len(clocks)]
			switch b % 8 {
			case 6: // force a combined flush
				if err := m.Flush(c); err != nil {
					t.Fatalf("flush: %v", err)
				}
			case 7: // tear a shard tail: garbage covered by the extent word
				sh := m.shards[int(b>>3)%nShards]
				m.lockShard(c.Holder(), sh)
				garbage := make([]byte, 8+60)
				garbage[0] = 60
				garbage[8] = b // vary the garbage so corpus entries differ
				if sh.bufOff+int64(len(garbage)) <= sh.limit {
					pm.Write(c, sh.bufOff, garbage)
					pm.Persist(c, sh.bufOff, len(garbage))
					var word [8]byte
					binary.LittleEndian.PutUint64(word[:], uint64(sh.bufOff+int64(len(garbage))))
					pm.Write(c, sh.base+8, word[:])
					pm.Persist(c, sh.base+8, len(word))
					damaged = true
				}
				m.unlockShard(c.Holder(), sh)
			case 5: // torn store.Append: a partial batch mid-file
				if err := store.Append(c, make([]byte, 1+int(b>>3))); err != nil {
					t.Fatalf("store append: %v", err)
				}
				damaged = true
			default: // append a small transaction
				txn := nextTxn
				nextTxn++
				if _, err := m.Append(c, &Record{TxnID: txn, Type: RecUpdate, PageID: uint64(b), Slot: 1, Before: []byte{0}, After: []byte{b}}); err != nil {
					t.Fatalf("append: %v", err)
				}
				if _, err := m.Append(c, &Record{TxnID: txn, Type: RecCommit}); err != nil {
					t.Fatalf("commit: %v", err)
				}
				if !damaged {
					committed[txn] = true
				}
			}
		}

		pm.Crash()

		m2, rl, err := Recover(vclock.New(), opt, newApplierMap())
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		// The merged log is strictly LSN-ordered with no duplicates left.
		for i := 1; i < len(rl.Records); i++ {
			prev, cur := rl.Records[i-1].LSN, rl.Records[i].LSN
			if prev != 0 && cur != 0 && cur <= prev {
				t.Fatalf("merged log not strictly LSN-ordered at %d: %d then %d", i, prev, cur)
			}
		}
		// Torn tails and garbage never swallow an acked commit. (Commits
		// acked after the first damage op may sit beyond a torn extent, so
		// only pre-damage commits are asserted.)
		for txn := range committed {
			if !rl.Committed[txn] {
				t.Fatalf("acked commit of txn %d lost (shards=%d)", txn, nShards)
			}
		}
		if m2.NextLSN() <= rl.MaxLSN {
			t.Fatalf("NextLSN %d not past recovered max %d", m2.NextLSN(), rl.MaxLSN)
		}
	})
}
