// Package server is the robustness layer between a socket and the engine:
// spitfire-serve's KV front-end. It exists to keep the buffer manager's
// failure modes — eviction convoys under memory pressure, permanent NVM
// loss, shutdown with dirty pages — from becoming client-visible chaos.
//
// Three mechanisms, in request order:
//
//   - Admission control: every request passes a per-client gate and a
//     global gate (bounded concurrency, bounded queue). Overflow is refused
//     immediately with 429/503 + Retry-After instead of parking without
//     bound; queued waiters are cancelled when their deadline expires.
//   - Backpressure: a monitor goroutine watches the buffer manager's
//     exported Pressure signals (free-list depth, the degraded-mode latch).
//     Low free headroom flips the server into shedding (no queuing, excess
//     load refused) *before* fetches start evicting synchronously; a
//     permanent NVM failure flips it into read-only mode so the surviving
//     tiers serve reads indefinitely.
//   - Graceful drain: Drain stops admission, lets in-flight requests finish
//     inside their deadlines, stops the cleaners, checkpoints the engine,
//     and closes the listener — so SIGTERM never drops an accepted request.
//
// The package uses wall-clock time throughout: it serves real sockets, so
// its deadlines and latency histograms are host-side quantities, unlike the
// simulated-time core it fronts.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/metrics"
	"github.com/spitfire-db/spitfire/internal/obs"
)

// Options configures a Server. Zero values take the documented defaults.
type Options struct {
	// DB and KV are the engine and the KV facade requests run against.
	// Both required.
	DB *engine.DB
	KV *engine.KV
	// Obs, when non-nil, receives request latency histograms and serves the
	// exposition endpoints (/metrics, /snapshot.json, ...) from this
	// server's listener; the Server installs itself as the obs Source.
	Obs *obs.Obs

	// MaxInflight bounds globally concurrent admitted requests (default 64).
	// QueueDepth bounds waiters behind them (default 4×MaxInflight).
	MaxInflight int
	QueueDepth  int
	// PerClientInflight / PerClientQueue bound any single client's share
	// (defaults 16 and 32). Clients are keyed by the X-Client-ID header,
	// falling back to the remote IP.
	PerClientInflight int
	PerClientQueue    int

	// DefaultDeadline applies when a request carries no deadline_ms query
	// parameter (default 2s); what clients ask for is clamped to maxDeadline.
	DefaultDeadline time.Duration

	// ShedFreeFrac is the buffer free-list fraction below which the server
	// sheds load (default 0.05); shedding clears with hysteresis at twice
	// this mark. PressureInterval paces the monitor (default 50ms).
	ShedFreeFrac     float64
	PressureInterval time.Duration

	// DrainTimeout bounds how long Drain waits for in-flight requests
	// (default 30s).
	DrainTimeout time.Duration

	// Seed bases the per-request core.Ctx seeds (default 1).
	Seed uint64

	// TestHoldPerRequest makes every admitted KV request hold its admission
	// slot this long before executing. Test-only: it turns "overload" into a
	// deterministic condition instead of a race against the engine's speed.
	TestHoldPerRequest time.Duration
}

func (o *Options) setDefaults() error {
	if o.DB == nil || o.KV == nil {
		return errors.New("server: Options.DB and Options.KV are required")
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 64
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.MaxInflight
	}
	if o.PerClientInflight <= 0 {
		o.PerClientInflight = 16
	}
	if o.PerClientQueue <= 0 {
		o.PerClientQueue = 32
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = 2 * time.Second
	}
	if o.ShedFreeFrac <= 0 {
		o.ShedFreeFrac = 0.05
	}
	if o.PressureInterval <= 0 {
		o.PressureInterval = 50 * time.Millisecond
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 30 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return nil
}

// Server is the KV front-end. Create with New, serve with Start (or mount
// Handler under a test server), stop with Drain or Close.
type Server struct {
	opts Options
	db   *engine.DB
	kv   *engine.KV
	bm   *core.BufferManager

	handler http.Handler
	adm     *admitter

	// Lifecycle state. draining refuses everything; readOnly refuses
	// writes (latched by the monitor on permanent NVM failure); shedding
	// disables queuing so overflow is refused instantly.
	draining atomic.Bool
	readOnly atomic.Bool
	shedding atomic.Bool

	// ctxPool recycles per-request core.Ctx values. A Ctx is single-
	// goroutine state, so each request checks one out for its whole
	// engine interaction and returns it with the interrupt hook cleared.
	ctxPool sync.Pool
	ctxSeq  atomic.Uint64

	cnt   counters
	hists struct {
		get, put, del, scan, txn *metrics.Histogram
	}

	ln      net.Listener
	srv     *http.Server
	monStop chan struct{}
	monWG   sync.WaitGroup
	stopped atomic.Bool
}

// New validates opts, builds the request router, and starts the pressure
// monitor. The server is usable immediately via Handler; Start adds a real
// listener.
func New(opts Options) (*Server, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		opts:    opts,
		db:      opts.DB,
		kv:      opts.KV,
		bm:      opts.DB.BM(),
		adm:     newAdmitter(opts.MaxInflight, opts.QueueDepth, opts.PerClientInflight, opts.PerClientQueue),
		monStop: make(chan struct{}),
	}
	s.cnt.minFreeFrac.Store(math.Float64bits(1))
	s.ctxPool.New = func() any {
		return core.NewCtx(s.opts.Seed + s.ctxSeq.Add(1))
	}
	if o := opts.Obs; o != nil {
		s.hists.get = o.NamedHist("req_get")
		s.hists.put = o.NamedHist("req_put")
		s.hists.del = o.NamedHist("req_delete")
		s.hists.scan = o.NamedHist("req_scan")
		s.hists.txn = o.NamedHist("req_txn")
		o.SetSource(s)
	}
	s.handler = s.routes()
	s.monWG.Add(1)
	go s.monitorLoop()
	return s, nil
}

// Handler returns the full request router (KV API, health endpoints, and —
// when configured — the obs exposition endpoints).
func (s *Server) Handler() http.Handler { return s.handler }

// Start binds addr (e.g. ":7070" or "127.0.0.1:0") and serves on a
// background goroutine until Drain or Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.handler}
	go func() {
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.cnt.errors.Add(1)
		}
	}()
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// StartDrain flips the server into draining — /readyz goes not-ready and
// new requests are refused — without closing the listener. It is the notice
// phase before Drain: the socket keeps answering so load balancers observe
// the readiness flip and stop routing before the listener disappears.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Drain performs the graceful shutdown sequence: flip to draining (new
// requests get 503, /readyz goes not-ready), wait up to DrainTimeout for
// in-flight requests to finish (their own deadlines cancel stragglers), stop
// the monitor, stop the buffer manager's cleaners — a cleaner mid-evict holds
// a page latch the checkpoint's flush would otherwise skip — and checkpoint
// the quiesced engine. It is safe to call once; the error reports the first
// step that failed.
func (s *Server) Drain() error {
	if !s.stopped.CompareAndSwap(false, true) {
		return nil
	}
	s.draining.Store(true)
	var err error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
		defer cancel()
		err = s.srv.Shutdown(ctx)
	}
	s.stopMonitor()
	s.bm.Close()
	if cerr := s.checkpoint(); err == nil {
		err = cerr
	}
	return err
}

// Close stops immediately: in-flight requests are abandoned and no
// checkpoint runs. Drain is the polite path.
func (s *Server) Close() error {
	if !s.stopped.CompareAndSwap(false, true) {
		return nil
	}
	s.draining.Store(true)
	s.stopMonitor()
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

func (s *Server) stopMonitor() {
	close(s.monStop)
	s.monWG.Wait()
}

// checkpoint flushes dirty DRAM and truncates the log once the server is
// quiescent (Drain guarantees no in-flight transactions remain).
func (s *Server) checkpoint() error {
	cc := s.ctxPool.Get().(*core.Ctx)
	defer s.ctxPool.Put(cc)
	skipped, err := s.db.Checkpoint(cc)
	s.cnt.checkpointSkipped.Store(int64(skipped))
	s.cnt.checkpoints.Add(1)
	if err != nil {
		return fmt.Errorf("server: drain checkpoint: %w", err)
	}
	if skipped > 0 {
		return fmt.Errorf("server: drain checkpoint skipped %d dirty pages (engine not quiescent)", skipped)
	}
	return nil
}

// monitorLoop samples buffer-manager pressure on a wall-clock ticker and
// drives the shedding / read-only state machine.
func (s *Server) monitorLoop() {
	defer s.monWG.Done()
	tick := time.NewTicker(s.opts.PressureInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.monStop:
			return
		case <-tick.C:
		}
		s.pollPressure()
	}
}

// pollPressure takes one pressure sample and updates server state:
//
//   - Permanent NVM failure (Pressure.Degraded) latches read-only mode.
//     The flag never clears — the engine's degradation is itself permanent —
//     so reads keep flowing off DRAM+SSD while writes get a clean 503.
//   - Free-list headroom below ShedFreeFrac starts shedding (admission
//     stops queuing); headroom above twice the mark stops it. The gap is
//     hysteresis so the flag doesn't flap at the boundary.
func (s *Server) pollPressure() {
	p := s.bm.Pressure()
	frac := p.MinFreeFrac()
	s.noteFreeFrac(frac)
	if p.Degraded && s.readOnly.CompareAndSwap(false, true) {
		s.cnt.degradedTrips.Add(1)
	}
	if frac < s.opts.ShedFreeFrac {
		if s.shedding.CompareAndSwap(false, true) {
			s.cnt.shedEnters.Add(1)
		}
	} else if frac >= 2*s.opts.ShedFreeFrac {
		s.shedding.CompareAndSwap(true, false)
	}
}

// noteFreeFrac records the lowest free-list fraction ever observed (the
// overload tests assert the pool never ran dry through Stats).
func (s *Server) noteFreeFrac(frac float64) {
	for {
		old := s.cnt.minFreeFrac.Load()
		if math.Float64frombits(old) <= frac {
			return
		}
		if s.cnt.minFreeFrac.CompareAndSwap(old, math.Float64bits(frac)) {
			return
		}
	}
}

// txnRetries bounds transparent retries of ErrConflict losers before the
// conflict surfaces to the client as 409.
const txnRetries = 3

// runTxn checks a core.Ctx out of the pool, installs the request deadline
// as its interrupt hook, and runs fn inside a transaction, retrying MVTO
// conflicts. The hook is cleared before any abort: abort restores
// before-images through the same Ctx, and cutting that short would leave
// torn tuples behind (see core.Ctx.SetInterrupt).
func (s *Server) runTxn(reqCtx context.Context, fn func(cc *core.Ctx, txn *engine.Txn) error) error {
	cc := s.ctxPool.Get().(*core.Ctx)
	defer s.ctxPool.Put(cc)
	var err error
	for attempt := 0; attempt <= txnRetries; attempt++ {
		cc.SetInterrupt(reqCtx.Err)
		txn := s.db.Begin()
		err = fn(cc, txn)
		if err == nil {
			err = txn.Commit(cc)
		}
		cc.SetInterrupt(nil)
		if err == nil {
			return nil
		}
		if aerr := txn.Abort(cc); aerr != nil {
			return fmt.Errorf("server: abort after %w: %v", err, aerr)
		}
		if !errors.Is(err, engine.ErrConflict) {
			return err
		}
		s.cnt.txnRetries.Add(1)
	}
	return err
}
