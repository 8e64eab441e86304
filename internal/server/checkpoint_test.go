package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/spitfire-db/spitfire"
	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/obs"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/ssd"
	"github.com/spitfire-db/spitfire/internal/testutil"
	"github.com/spitfire-db/spitfire/internal/wal"
)

// serveOne runs one request through h in-process, as client. A 409 means
// the transaction lost an MVTO race — a scan and a write crossed — and
// changed nothing, so it sends the request again, as a client would.
func serveOne(h http.Handler, method, target, client string, body []byte) (int, []byte) {
	for {
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		req.Header.Set("X-Client-ID", client)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusConflict {
			return rec.Code, rec.Body.Bytes()
		}
	}
}

// txnBody encodes a /kv/txn batch.
func txnBody(t testing.TB, ops []txnOp) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestServerLogStaysBounded: a server in the shipped posture, written to for
// twenty times its DRAM buffer's worth of log, checkpoints itself. The log
// never holds more than the bound plus one flush batch, and the live heap
// after the second half of the run is what it was after the first: nothing
// keeps the log the checkpoints retired.
func TestServerLogStaysBounded(t *testing.T) {
	const (
		dramBytes = 1 << 20 // -dram-mb 1
		keys      = 4000
		batch     = 32
		maxVal    = 256
		halves    = 2
		// Checkpoints per half: each retires more than the bound, which
		// here is the DRAM buffer.
		perHalf = 10
	)
	bm, err := spitfire.New(spitfire.Config{DRAMBytes: dramBytes, NVMBytes: 2 << 20, Policy: spitfire.SpitfireLazy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bm.Close)
	w, err := spitfire.NewWAL(spitfire.WALOptions{
		Buffer: pmem.New(pmem.Options{Size: 256 << 10}),
		Store:  wal.NewMemLog(nil),
		Shards: spitfire.RecommendedWALShards(),
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := spitfire.OpenDB(spitfire.DBOptions{BM: bm, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	kv, err := engine.OpenKV(db, 1, "kv", maxVal)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{DB: db, KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	h := s.Handler()
	bound := int64(dramBytes) // the 256 KiB WAL buffer is under the DRAM buffer
	ceiling := bound + w.BufferBytes()

	heapInuse := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	val := bytes.Repeat([]byte{'v'}, maxVal)
	ops := make([]txnOp, batch)
	var maxLog int64
	req := 0
	// drive overwrites the keys round after round, seven /kv/txn batches to
	// one single put, until want checkpoints have run or a request budget
	// several times what that needs is spent.
	drive := func(want int64) {
		t.Helper()
		for budget := 4 * perHalf * int(bound) / (batch * maxVal); s.Stats().Checkpoints < want; budget-- {
			if budget == 0 {
				t.Fatalf("only %d checkpoints after %d requests; log holds %d bytes against a bound of %d",
					s.Stats().Checkpoints, req, w.LogBytes(), bound)
			}
			key := uint64(req * batch % keys)
			val[0] = byte(req)
			if req%8 == 7 {
				if code, body := serveOne(h, "PUT", fmt.Sprintf("/kv/put?key=%d", key), "c", val); code != http.StatusNoContent {
					t.Fatalf("put %d: %d %s", key, code, body)
				}
			} else {
				for i := range ops {
					ops[i] = txnOp{Op: "put", Key: (key + uint64(i)) % keys, Value: val}
				}
				if code, body := serveOne(h, "POST", "/kv/txn", "c", txnBody(t, ops)); code != http.StatusOK {
					t.Fatalf("txn at key %d: %d %s", key, code, body)
				}
			}
			req++
			if n := w.LogBytes(); n > maxLog {
				maxLog = n
				if n > ceiling {
					t.Fatalf("after request %d the log holds %d bytes, over the bound %d plus one flush batch (%d)",
						req, n, bound, w.BufferBytes())
				}
			}
		}
	}
	var heap [halves]uint64
	for half := range heap {
		drive(int64(half+1) * perHalf)
		heap[half] = heapInuse()
		t.Logf("after half %d: %d requests, %d checkpoints, HeapInuse %.1f MiB",
			half+1, req, s.Stats().Checkpoints, float64(heap[half])/(1<<20))
	}
	st := s.Stats()
	if st.Checkpoints == 0 {
		t.Fatal("the server never checkpointed")
	}
	t.Logf("largest log %d bytes (bound %d), %d checkpoints, %d given up", maxLog, bound, st.Checkpoints, st.CheckpointGiveUps)
	if testutil.RaceEnabled() {
		return // heap readings are not meaningful under -race
	}
	// Without the checkpoints the second half alone adds ten DRAM buffers of
	// log; with them it adds nothing.
	if grew := int64(heap[1]) - int64(heap[0]); grew > 2<<20 {
		t.Errorf("HeapInuse grew %.1f MiB over the second half; it should stay flat", float64(grew)/(1<<20))
	}
}

// TestAckedWritesSurviveCheckpoints: concurrent clients mixing put, get,
// scan, /kv/txn and delete over an 8-frame DRAM pool, so checkpoints land in
// the middle of the load. Each client owns its keys, so a reference model of
// them checks every read exactly. After the load the engine crashes from its
// pmem and log state and recovers, and every acknowledged write must be what
// recovery finds.
func TestAckedWritesSurviveCheckpoints(t *testing.T) {
	const (
		clients   = 4
		perClient = 300 // keys each client owns
		requests  = 3000
		maxVal    = 64
		walShards = 2
	)
	dataArena := pmem.New(pmem.Options{Size: 32 * (core.PageSize + 64), TrackCrashes: true})
	logArena := pmem.New(pmem.Options{Size: 64 << 10, TrackCrashes: true})
	disk := ssd.NewMem(nil)
	logStore := wal.NewMemLog(nil)
	cfg := core.Config{
		DRAMBytes: 8 * core.PageSize, NVMBytes: dataArena.Size(),
		Policy: policy.SpitfireEager, PMem: dataArena, SSD: disk,
	}
	bm, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bm.StartCleaners()
	t.Cleanup(bm.Close)
	w, err := wal.New(wal.Options{Buffer: logArena, Store: logStore, Shards: walShards})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(engine.Options{BM: bm, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	kv, err := engine.OpenKV(db, 1, "kv", maxVal)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{DB: db, KV: kv, DefaultDeadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	h := s.Handler()

	models := make([]map[uint64][]byte, clients)
	var wg sync.WaitGroup
	for c := range clients {
		models[c] = map[uint64][]byte{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := runModelClient(h, c, perClient, requests, maxVal, models[c]); err != nil {
				t.Errorf("client %d: %v", c, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := s.Stats()
	t.Logf("%d checkpoints during the load, %d given up", st.Checkpoints, st.CheckpointGiveUps)
	if st.Checkpoints < 3 {
		t.Fatalf("%d checkpoints during the load; the test wants several to land mid-load", st.Checkpoints)
	}

	// Power loss: no drain and no checkpoint. The cleaners stop, then every
	// store that was not persisted rolls back.
	s.Close()
	bm.Close()
	dataArena.Crash()
	logArena.Crash()
	bm2, err := core.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rctx := engine.NewRecoveryCtx()
	db2, rl, err := engine.Recover(rctx, engine.RecoverOptions{
		BM:     bm2,
		WAL:    wal.Options{Buffer: logArena, Store: logStore, Shards: walShards},
		Schema: []engine.TableDef{{ID: 1, Name: "kv", TupleSize: 2 + maxVal}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rl.Losers) != 0 {
		t.Fatalf("losers after a crash with no transaction open: %v", rl.Losers)
	}
	tb := db2.Table(1)
	txn := db2.Begin()
	defer txn.Commit(rctx)
	buf := make([]byte, 2+maxVal)
	for c, model := range models {
		for key := uint64(c * perClient); key < uint64((c+1)*perClient); key++ {
			want, live := model[key]
			err := tb.Read(rctx, txn, key, buf)
			switch {
			case !live && errors.Is(err, engine.ErrNotFound):
			case !live:
				t.Errorf("key %d: deleted or never written, recovery reads err=%v value=%q", key, err, kvValue(buf))
			case err != nil:
				t.Errorf("key %d: acknowledged %q, recovery reads %v", key, want, err)
			case !bytes.Equal(kvValue(buf), want):
				t.Errorf("key %d: acknowledged %q, recovery reads %q", key, want, kvValue(buf))
			}
		}
	}
}

// kvValue decodes a KV tuple: a little-endian length, then the value.
func kvValue(tuple []byte) []byte {
	n := int(binary.LittleEndian.Uint16(tuple))
	if n > len(tuple)-2 {
		n = len(tuple) - 2
	}
	return tuple[2 : 2+n]
}

// runModelClient issues requests as client c against the keys it owns,
// [c*perClient, (c+1)*perClient), keeping model equal to every write the
// server acknowledged and checking every read against it.
func runModelClient(h http.Handler, c, perClient, requests, maxVal int, model map[uint64][]byte) error {
	id := fmt.Sprintf("client%d", c)
	lo, hi := uint64(c*perClient), uint64((c+1)*perClient)
	r := rand.New(rand.NewPCG(uint64(c), 0x5eed))
	key := func() uint64 { return lo + r.Uint64N(hi-lo) }
	value := func(i int) []byte {
		v := fmt.Appendf(nil, "c%d-r%d-", c, i)
		return append(v, bytes.Repeat([]byte{'x'}, r.IntN(maxVal-len(v)))...)
	}
	for i := range requests {
		switch p := r.IntN(100); {
		case p < 30:
			k, v := key(), value(i)
			if code, body := serveOne(h, "PUT", fmt.Sprintf("/kv/put?key=%d", k), id, v); code != http.StatusNoContent {
				return fmt.Errorf("put %d: %d %s", k, code, body)
			}
			model[k] = v
		case p < 55:
			k := key()
			code, body := serveOne(h, "GET", fmt.Sprintf("/kv/get?key=%d", k), id, nil)
			want, live := model[k]
			if live && (code != http.StatusOK || !bytes.Equal(body, want)) || !live && code != http.StatusNotFound {
				return fmt.Errorf("get %d = %d %q, model has %q (live %v)", k, code, body, want, live)
			}
		case p < 65:
			k := key()
			code, body := serveOne(h, "DELETE", fmt.Sprintf("/kv/delete?key=%d", k), id, nil)
			if _, live := model[k]; live && code != http.StatusNoContent || !live && code != http.StatusNotFound {
				return fmt.Errorf("delete %d = %d %s (live %v)", k, code, body, live)
			}
			delete(model, k)
		case p < 90:
			if err := modelTxn(h, id, r, key, value(i), model); err != nil {
				return err
			}
		default:
			if err := modelScan(h, id, key(), hi, model); err != nil {
				return err
			}
		}
	}
	return nil
}

// modelTxn runs a /kv/txn batch of gets, puts and deletes and checks its
// results against model, which it then brings up to date.
func modelTxn(h http.Handler, id string, r *rand.Rand, key func() uint64, val []byte, model map[uint64][]byte) error {
	ops := make([]txnOp, 2+r.IntN(4))
	for i := range ops {
		ops[i] = txnOp{Op: [...]string{"get", "put", "delete"}[r.IntN(3)], Key: key()}
		if ops[i].Op == "put" {
			ops[i].Value = append(val[:len(val):len(val)], byte('0'+i))
		}
	}
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		return err
	}
	code, resp := serveOne(h, "POST", "/kv/txn", id, body)
	if code != http.StatusOK {
		return fmt.Errorf("txn: %d %s", code, resp)
	}
	var out struct{ Results []txnOpResult }
	if err := json.Unmarshal(resp, &out); err != nil || len(out.Results) != len(ops) {
		return fmt.Errorf("txn response %s: %v", resp, err)
	}
	for i, op := range ops {
		res := out.Results[i]
		want, live := model[op.Key]
		switch op.Op {
		case "get":
			if res.Found != live || !bytes.Equal(res.Value, want) {
				return fmt.Errorf("txn get %d = %v %q, model has %q (live %v)", op.Key, res.Found, res.Value, want, live)
			}
		case "put":
			model[op.Key] = op.Value
		case "delete":
			if res.Found != live {
				return fmt.Errorf("txn delete %d found=%v, model live=%v", op.Key, res.Found, live)
			}
			delete(model, op.Key)
		}
	}
	return nil
}

// modelScan scans from `from` and checks the rows that fall in the client's
// own keys, [from, hi), against model: the same keys, with the same values,
// up to where the scan stopped.
func modelScan(h http.Handler, id string, from, hi uint64, model map[uint64][]byte) error {
	const limit = 40
	code, body := serveOne(h, "GET", fmt.Sprintf("/kv/scan?from=%d&limit=%d", from, limit), id, nil)
	if code != http.StatusOK {
		return fmt.Errorf("scan from %d: %d %s", from, code, body)
	}
	got := map[uint64][]byte{}
	rows, last := 0, from
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var row struct {
			Key   uint64 `json:"key"`
			Value []byte `json:"value"`
		}
		if err := dec.Decode(&row); err != nil {
			return fmt.Errorf("scan from %d: %w", from, err)
		}
		rows++
		last = row.Key
		if row.Key < hi {
			got[row.Key] = row.Value
		}
	}
	upto := hi - 1 // a scan that ran out of rows covered all the client's keys
	if rows == limit {
		upto = min(last, hi-1)
	}
	for k := from; k <= upto; k++ {
		want, live := model[k]
		v, seen := got[k]
		if seen != live || !bytes.Equal(v, want) {
			return fmt.Errorf("scan from %d: key %d reads %q (present %v), model has %q (live %v)", from, k, v, seen, want, live)
		}
	}
	return nil
}

// TestScanRacesPendingCheckpoint: a long /kv/scan, a checkpoint and a put
// race, again and again. Nothing deadlocks, the scan returns every row, and
// the put that queued behind the checkpoint succeeds: waiting for a
// checkpoint is not a refusal. Then a checkpoint holds the gate past a
// scan's whole deadline: the scan answers as soon as the gate opens, late
// by one checkpoint and no more.
func TestScanRacesPendingCheckpoint(t *testing.T) {
	const keys = 3000
	db, kv := newCleanerEngine(t)
	s, err := New(Options{DB: db, KV: kv, Obs: obs.New(obs.Config{}), DefaultDeadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	h := s.Handler()
	ctx, txn := core.NewCtx(3), db.Begin()
	for k := uint64(0); k < keys; k++ {
		if err := kv.Put(ctx, txn, k, []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	watchdog := func(what string, wg *sync.WaitGroup) {
		t.Helper()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: still blocked after 30 s", what)
		}
	}
	for i := range 20 {
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			code, body := serveOne(h, "GET", fmt.Sprintf("/kv/scan?from=0&limit=%d", keys), "scanner", nil)
			if n := bytes.Count(body, []byte("\n")); code != http.StatusOK || n != keys {
				t.Errorf("round %d: scan = %d with %d rows, want 200 with %d", i, code, n, keys)
			}
		}()
		go func() {
			defer wg.Done()
			cc := core.NewCtx(uint64(100 + i))
			if err := s.checkpoint(cc); err != nil {
				t.Errorf("round %d: checkpoint: %v", i, err)
			}
		}()
		go func() {
			defer wg.Done()
			if code, body := serveOne(h, "PUT", fmt.Sprintf("/kv/put?key=%d", i), "writer", []byte("racer")); code != http.StatusNoContent {
				t.Errorf("round %d: put = %d %s", i, code, body)
			}
		}()
		watchdog(fmt.Sprintf("round %d", i), &wg)
	}
	if st := s.Stats(); st.Checkpoints < 20 || st.CheckpointGiveUps != 0 {
		t.Fatalf("checkpoints %d, given up %d; want at least 20 and 0", st.Checkpoints, st.CheckpointGiveUps)
	}

	// A checkpoint holds the gate for hold, longer than the scan's deadline.
	const hold, deadline = 300 * time.Millisecond, 50 * time.Millisecond
	gate := core.NewCtx(9).Clock.Holder()
	s.txnGate.lockExclusive(gate)
	var wg sync.WaitGroup
	wg.Add(1)
	var code int
	var took time.Duration
	go func() {
		defer wg.Done()
		start := time.Now()
		code, _ = serveOne(h, "GET", fmt.Sprintf("/kv/scan?from=0&limit=%d&deadline_ms=%d", keys, deadline.Milliseconds()), "late", nil)
		took = time.Since(start)
	}()
	waitFor(t, "the scan to be admitted", func() bool { return s.Stats().Accepted > s.Stats().Completed })
	time.Sleep(hold)
	s.txnGate.unlockExclusive(gate)
	watchdog("scan behind a held gate", &wg)
	if code != http.StatusOK && code != http.StatusServiceUnavailable {
		t.Fatalf("scan behind a checkpoint = %d, want 200 or a 503 deadline", code)
	}
	if slack := time.Second; took < hold || took > hold+deadline+slack {
		t.Fatalf("scan behind a %v checkpoint took %v; it should wait the checkpoint out and then answer within its %v deadline", hold, took, deadline)
	}
	if st := s.Stats(); st.RejectedQueueFull+st.Shed+st.QueueExpired != 0 {
		t.Fatalf("a request was refused while a checkpoint ran: %+v", st)
	}
}

// TestCheckpointWaitsForOpenTransactions: DB.Checkpoint must not run while a
// transaction is open, so the server's checkpoint waits for the gate that
// every transaction holds shared.
func TestCheckpointWaitsForOpenTransactions(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	txn := core.NewCtx(8).Clock.Holder()
	s.txnGate.lockShared(txn) // an open transaction
	done := make(chan error, 1)
	go func() {
		done <- s.checkpoint(core.NewCtx(7))
	}()
	select {
	case err := <-done:
		t.Fatalf("checkpoint finished (err %v) while a transaction was open", err)
	case <-time.After(100 * time.Millisecond):
	}
	s.txnGate.unlockShared(txn)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
