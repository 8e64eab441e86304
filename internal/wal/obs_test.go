package wal

import (
	"sync"
	"testing"

	"github.com/spitfire-db/spitfire/internal/obs"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// TestEveryEventReachesARing: an obs.Ring has one producer, so the appenders
// of a shard and the flusher must never emit into one ring. Several
// goroutines append on one shard, and cross its flush threshold, while
// another flushes in a loop; every append must leave one event and every
// flush two (EvWALFlush, EvWALGroupCommit).
func TestEveryEventReachesARing(t *testing.T) {
	pm := pmem.New(pmem.Options{Size: 1 << 16})
	m, err := New(Options{Buffer: pm, Store: NewMemLog(nil), FlushThreshold: 2 << 10, Obs: obs.New(obs.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := vclock.New()
			for i := 0; i < each; i++ {
				if _, err := m.Append(c, &Record{TxnID: uint64(w), Type: RecCommit, After: []byte{byte(w)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := vclock.New()
		for i := 0; i < each; i++ {
			if err := m.Flush(c); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	appends, flushes, _ := m.Stats()
	events := m.flushRing.Len()
	for _, sh := range m.shards {
		events += sh.ring.Len()
	}
	if want := uint64(appends + 2*flushes); events != want {
		t.Errorf("the WAL's rings hold %d events, want %d appends + 2 × %d flushes = %d", events, appends, flushes, want)
	}
}
