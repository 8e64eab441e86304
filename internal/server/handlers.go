package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/metrics"
)

// scanLimitCap bounds a single /kv/scan response; scanLimitDefault applies
// when the client names no limit.
const (
	scanLimitDefault = 100
	scanLimitCap     = 10000
)

// routes builds the request router: the KV API, the health endpoints, and
// (when configured) the obs exposition endpoints as the fallback handler.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/kv/get", s.handleGet)
	mux.HandleFunc("/kv/put", s.handlePut)
	mux.HandleFunc("/kv/delete", s.handleDelete)
	mux.HandleFunc("/kv/scan", s.handleScan)
	mux.HandleFunc("/kv/txn", s.handleTxn)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/stats.json", s.handleStats)
	if s.opts.Obs != nil {
		mux.Handle("/", s.opts.Obs.Handler())
	}
	return mux
}

const (
	// maxDeadline bounds the deadline a client may ask for with deadline_ms:
	// outside input must not be able to hold an admission slot indefinitely.
	maxDeadline = 30 * time.Second
	// retryAfterSeconds is the Retry-After hint on 429/503 refusals.
	retryAfterSeconds = "1"
)

// refuse writes a load-management refusal: status, a one-line reason, and —
// when hinted — a Retry-After so well-behaved clients back off instead of
// hammering the admission queue.
func (s *Server) refuse(w http.ResponseWriter, status int, reason string, retry bool) {
	if retry {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	http.Error(w, reason, status)
}

// clientID keys the per-client admission gate: the X-Client-ID header when
// present, else the remote IP (not IP:port — one client, many sockets).
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// deadline resolves the request's deadline from deadline_ms, clamped to
// [1ms, maxDeadline], defaulting to DefaultDeadline.
func (s *Server) deadline(r *http.Request) time.Duration {
	d := s.opts.DefaultDeadline
	if v := r.URL.Query().Get("deadline_ms"); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			// Clamp before multiplying: a huge ms would overflow to a
			// negative, already-expired Duration.
			d = time.Duration(min(ms, maxDeadline.Milliseconds())) * time.Millisecond
		}
	}
	if d > maxDeadline {
		d = maxDeadline
	}
	return d
}

// admitted is the per-request state begin hands to an accepted handler.
type admitted struct {
	ctx     context.Context
	cancel  context.CancelFunc
	release func()
	start   time.Time
}

// begin runs the admission prologue shared by every KV endpoint: drain and
// read-only refusals, deadline resolution, then the two-stage admission
// gate. On refusal it writes the response itself and returns ok=false; on
// success the caller must defer s.finish.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, write bool) (admitted, bool) {
	if s.draining.Load() {
		s.cnt.rejectedDraining.Add(1)
		s.refuse(w, http.StatusServiceUnavailable, "draining", true)
		return admitted{}, false
	}
	if write && s.readOnly.Load() {
		s.cnt.rejectedReadOnly.Add(1)
		s.refuse(w, http.StatusServiceUnavailable, "read-only: NVM tier permanently failed", false)
		return admitted{}, false
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(r))
	release, err := s.adm.admit(ctx, clientID(r), s.shedding.Load())
	if err != nil {
		cancel()
		switch {
		case errors.Is(err, ErrQueueFull):
			s.cnt.rejectedQueueFull.Add(1)
			s.refuse(w, http.StatusTooManyRequests, err.Error(), true)
		case errors.Is(err, ErrShedding):
			s.cnt.shed.Add(1)
			s.refuse(w, http.StatusServiceUnavailable, err.Error(), true)
		default: // ErrExpired
			s.cnt.queueExpired.Add(1)
			s.refuse(w, http.StatusServiceUnavailable, err.Error(), true)
		}
		return admitted{}, false
	}
	s.cnt.accepted.Add(1)
	s.noteFreeFrac(s.bm.Pressure().MinFreeFrac())
	if hold := s.opts.TestHoldPerRequest; hold > 0 {
		wallSleep(hold)
	}
	return admitted{
		ctx:     ctx,
		cancel:  cancel,
		release: release,
		start:   wallNow(),
	}, true
}

// finish releases the admission slot and records the request latency.
func (s *Server) finish(a admitted, h *metrics.Histogram) {
	a.release()
	a.cancel()
	s.cnt.completed.Add(1)
	if h != nil {
		h.Observe(wallNow().Sub(a.start).Nanoseconds())
	}
}

// wallNow and wallSleep are the server's only uses of the host clock: it
// serves real sockets, so its request latencies, checkpoint pauses and
// waits are wall-clock quantities, never simulated time.
func wallNow() time.Time { return time.Now() } //vet:allow determinism request latencies and checkpoint pauses are wall-clock

func wallSleep(d time.Duration) { time.Sleep(d) } //vet:allow determinism TestHoldPerRequest's hold is a host-side wait

// writeErr maps engine/context errors onto the API's status contract:
// 404 missing key, 409 conflict after retries, 503 deadline, 500 bug.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, engine.ErrNotFound):
		s.cnt.notFound.Add(1)
		http.Error(w, "key not found", http.StatusNotFound)
	case errors.Is(err, engine.ErrConflict):
		s.cnt.conflicts.Add(1)
		s.refuse(w, http.StatusConflict, "write conflict; retry", true)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.cnt.deadlineExceeded.Add(1)
		s.refuse(w, http.StatusServiceUnavailable, "deadline exceeded", true)
	default:
		s.cnt.errors.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// keyParam parses the required key query parameter.
func keyParam(r *http.Request) (uint64, error) {
	v := r.URL.Query().Get("key")
	if v == "" {
		return 0, errors.New("missing key parameter")
	}
	return strconv.ParseUint(v, 10, 64)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	key, err := keyParam(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	a, ok := s.begin(w, r, false)
	if !ok {
		return
	}
	defer s.finish(a, s.hists.get)
	var val []byte
	err = s.runTxn(a.ctx, func(cc *core.Ctx, txn *engine.Txn) error {
		var gerr error
		val, gerr = s.kv.Get(cc, txn, key)
		return gerr
	})
	if err != nil {
		s.writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(val)
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPut && r.Method != http.MethodPost {
		http.Error(w, "PUT or POST only", http.StatusMethodNotAllowed)
		return
	}
	key, err := keyParam(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	val, err := io.ReadAll(http.MaxBytesReader(w, r.Body, int64(s.kv.MaxValue())+1))
	if err != nil || len(val) > s.kv.MaxValue() {
		http.Error(w, fmt.Sprintf("value exceeds %d bytes", s.kv.MaxValue()),
			http.StatusRequestEntityTooLarge)
		return
	}
	a, ok := s.begin(w, r, true)
	if !ok {
		return
	}
	defer s.finish(a, s.hists.put)
	err = s.runTxn(a.ctx, func(cc *core.Ctx, txn *engine.Txn) error {
		return s.kv.Put(cc, txn, key, val)
	})
	if err != nil {
		s.writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete && r.Method != http.MethodPost {
		http.Error(w, "DELETE or POST only", http.StatusMethodNotAllowed)
		return
	}
	key, err := keyParam(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	a, ok := s.begin(w, r, true)
	if !ok {
		return
	}
	defer s.finish(a, s.hists.del)
	err = s.runTxn(a.ctx, func(cc *core.Ctx, txn *engine.Txn) error {
		return s.kv.Delete(cc, txn, key)
	})
	if err != nil {
		s.writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	var from uint64
	if v := q.Get("from"); v != "" {
		var err error
		if from, err = strconv.ParseUint(v, 10, 64); err != nil {
			http.Error(w, "bad from parameter", http.StatusBadRequest)
			return
		}
	}
	limit := scanLimitDefault
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "bad limit parameter", http.StatusBadRequest)
			return
		}
		limit = n
	}
	if limit > scanLimitCap {
		limit = scanLimitCap
	}
	a, ok := s.begin(w, r, false)
	if !ok {
		return
	}
	defer s.finish(a, s.hists.scan)
	// Buffer the whole result inside the transaction so a mid-scan error
	// never leaves a half-written 200 on the wire.
	var buf bytes.Buffer
	err := s.runTxn(a.ctx, func(cc *core.Ctx, txn *engine.Txn) error {
		buf.Reset()
		return s.kv.Scan(cc, txn, from, limit, func(k uint64, v []byte) bool {
			fmt.Fprintf(&buf, "{\"key\":%d,\"value\":%q}\n", k, base64.StdEncoding.EncodeToString(v))
			return true
		})
	})
	if err != nil {
		s.writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(buf.Bytes())
}

// txnOp is one operation in a /kv/txn batch. Value travels base64-encoded
// (encoding/json's []byte convention).
type txnOp struct {
	Op    string `json:"op"` // "get", "put", or "delete"
	Key   uint64 `json:"key"`
	Value []byte `json:"value,omitempty"`
}

// txnOpResult reports one batch operation's outcome. Found is false when a
// get or delete addressed a missing key — op-level, not a batch failure.
type txnOpResult struct {
	Op    string `json:"op"`
	Key   uint64 `json:"key"`
	Found bool   `json:"found"`
	Value []byte `json:"value,omitempty"`
}

// handleTxn executes a batch of operations in one transaction: all-or-
// nothing under MVTO, with conflicts retried like single operations.
func (s *Server) handleTxn(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		Ops []txnOp `json:"ops"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Ops) == 0 {
		http.Error(w, "empty ops", http.StatusBadRequest)
		return
	}
	write := false
	for _, op := range req.Ops {
		switch op.Op {
		case "get":
		case "put":
			write = true
			if len(op.Value) > s.kv.MaxValue() {
				http.Error(w, fmt.Sprintf("value exceeds %d bytes", s.kv.MaxValue()),
					http.StatusRequestEntityTooLarge)
				return
			}
		case "delete":
			write = true
		default:
			http.Error(w, fmt.Sprintf("unknown op %q", op.Op), http.StatusBadRequest)
			return
		}
	}
	a, ok := s.begin(w, r, write)
	if !ok {
		return
	}
	defer s.finish(a, s.hists.txn)
	results := make([]txnOpResult, len(req.Ops))
	err := s.runTxn(a.ctx, func(cc *core.Ctx, txn *engine.Txn) error {
		for i, op := range req.Ops {
			res := txnOpResult{Op: op.Op, Key: op.Key}
			switch op.Op {
			case "get":
				v, err := s.kv.Get(cc, txn, op.Key)
				switch {
				case errors.Is(err, engine.ErrNotFound):
				case err != nil:
					return err
				default:
					res.Found, res.Value = true, v
				}
			case "put":
				if err := s.kv.Put(cc, txn, op.Key, op.Value); err != nil {
					return err
				}
				res.Found = true
			case "delete":
				err := s.kv.Delete(cc, txn, op.Key)
				switch {
				case errors.Is(err, engine.ErrNotFound):
				case err != nil:
					return err
				default:
					res.Found = true
				}
			}
			results[i] = res
		}
		return nil
	})
	if err != nil {
		s.writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"results": results})
}

// handleHealthz is liveness: 200 for as long as the process can serve HTTP,
// including while draining or degraded — restarting a draining process
// would defeat the drain.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 503 with a reason whenever the server would
// refuse (some) work — draining, shedding, or read-only — so load balancers
// steer traffic away before it burns an admission attempt.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	reason := ""
	switch {
	case s.draining.Load():
		reason = "draining"
	case s.readOnly.Load():
		reason = "read-only: NVM tier permanently failed"
	case s.shedding.Load():
		reason = "shedding: buffer free list under pressure"
	}
	w.Header().Set("Content-Type", "application/json")
	p := s.bm.Pressure()
	if reason != "" {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "{\"ready\":false,\"reason\":%q,\"min_free_frac\":%.4f}\n", reason, p.MinFreeFrac())
		return
	}
	fmt.Fprintf(w, "{\"ready\":true,\"min_free_frac\":%.4f}\n", p.MinFreeFrac())
}

// handleStats serves the server's own Stats as JSON (the blackbox tests
// assert on it without needing the obs stack).
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.Stats()); err != nil {
		s.cnt.errors.Add(1)
	}
}
