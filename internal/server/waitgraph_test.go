package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/lockcheck"
)

// TestWaitGraphUnderLoad runs concurrent mixed KV traffic with lockcheck's
// waitgraph recording enabled and asserts the observed cross-goroutine
// latch waits form no rank cycle. This is the dynamic complement of the
// per-acquisition discipline rules: the rules panic on any single
// acquisition that could close a cycle, and this test checks the aggregate
// wait-for graph of a real server workload stays acyclic too — with a
// checkpointer taking the transaction gate exclusive throughout. It only does
// anything under `go test -race -tags lockcheck ./internal/server/`; in the
// default build the stub checker records nothing and the test skips.
func TestWaitGraphUnderLoad(t *testing.T) {
	if !lockcheck.Enabled {
		t.Skip("needs -tags lockcheck")
	}
	db, kv, _ := newTestEngine(t, false)
	s, ts := newTestServer(t, Options{
		DB: db, KV: kv,
		MaxInflight:     16,
		DefaultDeadline: 10 * time.Second,
	})

	lockcheck.EnableWaitGraph()
	defer lockcheck.DisableWaitGraph()

	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		cc := core.NewCtx(99)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if skipped, err := s.checkpoint(cc); err != nil || skipped != 0 {
				t.Errorf("checkpoint under load: skipped %d, err %v", skipped, err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := (w*7 + i) % 16 // overlapping keys force latch contention
				url := fmt.Sprintf("%s/kv/put?key=%d", ts.URL, key)
				req, _ := http.NewRequest("PUT", url, strings.NewReader("v"))
				req.Header.Set("X-Client-ID", fmt.Sprintf("w%d", w))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 500 {
					t.Errorf("worker %d: status %d", w, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-ckptDone

	report := lockcheck.WaitGraphReport()
	for _, line := range report {
		if strings.HasPrefix(line, "CYCLE:") {
			t.Errorf("wait-for cycle under load: %s", line)
		}
	}
	t.Logf("waitgraph: %d lines", len(report))
	for _, line := range report {
		t.Logf("  %s", line)
	}
}
