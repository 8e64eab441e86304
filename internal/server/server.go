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
// The server also keeps its log bounded while it runs. A request whose
// transaction leaves more log in the store than the DRAM buffer holds
// (floored at the WAL's NVM buffer) checkpoints before it answers. A
// checkpoint writes back at most the DRAM buffer's dirty pages, so at that
// bound its write-back never exceeds the log it retires. Transactions hold
// the transaction gate shared and a checkpoint holds it exclusive, so a
// request that arrives during a checkpoint waits for it — one checkpoint's
// pause, exported as spitfire_checkpoint_pause_wall_ns — and is never
// refused for it. Drain's checkpoint is the same function.
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
	"github.com/spitfire-db/spitfire/internal/lockcheck"
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

	// txnGate is held shared by every transaction (retries included) and
	// exclusive by a checkpoint, which DB.Checkpoint requires to run with
	// no transaction open. logBound is the log size, in bytes shipped to
	// the store, past which a request checkpoints (0 without a WAL);
	// checkpointing lets one request at a time do it.
	txnGate       txnGate
	logBound      int64
	checkpointing atomic.Bool

	cnt         [nCounters]atomic.Int64 // indexed by the counters table's ids
	minFreeFrac atomic.Uint64           // lowest free fraction sampled (math.Float64bits)
	hists       struct {
		get, put, del, scan, txn *metrics.Histogram
		checkpointPause          *metrics.Histogram
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
	s.minFreeFrac.Store(math.Float64bits(1))
	s.ctxPool.New = func() any {
		return core.NewCtx(s.opts.Seed + s.ctxSeq.Add(1))
	}
	if w := s.db.WAL(); w != nil {
		s.logBound = max(int64(s.bm.DRAMFrames())*core.PageSize, w.BufferBytes())
	}
	if o := opts.Obs; o != nil {
		s.hists.get = o.NamedHist("req_get")
		s.hists.put = o.NamedHist("req_put")
		s.hists.del = o.NamedHist("req_delete")
		s.hists.scan = o.NamedHist("req_scan")
		s.hists.txn = o.NamedHist("req_txn")
		s.hists.checkpointPause = o.NamedHist("checkpoint_pause_wall")
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
			s.cnt[cErrors].Add(1)
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
// the monitor, stop the buffer manager's cleaners and checkpoint the
// quiesced engine. It is safe to call once; the error reports the first step
// that failed.
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
	cc := s.ctxPool.Get().(*core.Ctx)
	defer s.ctxPool.Put(cc)
	cerr := s.checkpoint(cc)
	if cerr == nil {
		s.cnt[cDrainCheckpoints].Add(1)
	} else if err == nil {
		err = fmt.Errorf("server: drain checkpoint: %w", cerr)
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

// checkpoint is the server's one checkpoint path, periodic and drain alike.
// It holds the transaction gate exclusive, so no transaction is open while
// DB.Checkpoint flushes dirty DRAM and truncates the log.
func (s *Server) checkpoint(cc *core.Ctx) error {
	s.txnGate.lockExclusive(cc.Clock.Holder())
	start := wallNow()
	_, err := s.db.Checkpoint(cc)
	pause := wallNow().Sub(start)
	s.txnGate.unlockExclusive(cc.Clock.Holder())
	if h := s.hists.checkpointPause; h != nil {
		h.Observe(pause.Nanoseconds())
	}
	if err == nil {
		s.cnt[cCheckpoints].Add(1)
	} else {
		s.cnt[cCheckpointGiveUps].Add(1)
	}
	return err
}

// maybeCheckpoint checkpoints once the log shipped to the store since the
// last truncation has outgrown logBound. The caller must not be inside a
// transaction. One request checkpoints at a time; the others go on. A
// read-only server refuses writes, so its log cannot grow and it leaves the
// failed NVM tier alone.
func (s *Server) maybeCheckpoint(cc *core.Ctx) {
	if s.logBound == 0 || s.db.WAL().LogBytes() <= s.logBound || s.readOnly.Load() {
		return
	}
	if !s.checkpointing.CompareAndSwap(false, true) {
		return
	}
	defer s.checkpointing.Store(false)
	if s.db.WAL().LogBytes() > s.logBound { // not already done by the checkpoint that just ended
		// The request has already succeeded. A checkpoint that fails is
		// counted, and the next request past the bound tries again.
		_ = s.checkpoint(cc)
	}
}

// txnGate is the server's transaction gate. Its lock shims route through
// lockcheck, which holds it to be a root: taken with nothing else held by
// the request's Ctx, never twice. It is a type of its own so that the
// mutex is its receiver's field: an RUnlock through a field of Server
// costs the shim two more than the inlining budget.
type txnGate struct{ mu sync.RWMutex }

func (g *txnGate) lockShared(h *lockcheck.Holder) {
	lockcheck.Acquire(h, g, lockcheck.RankTxnGate)
	g.mu.RLock()
}

func (g *txnGate) unlockShared(h *lockcheck.Holder) {
	g.mu.RUnlock()
	if lockcheck.Enabled {
		lockcheck.Release(h, g, lockcheck.RankTxnGate)
	}
}

func (g *txnGate) lockExclusive(h *lockcheck.Holder) {
	lockcheck.Acquire(h, g, lockcheck.RankTxnGate)
	g.mu.Lock()
}

func (g *txnGate) unlockExclusive(h *lockcheck.Holder) {
	g.mu.Unlock()
	lockcheck.Release(h, g, lockcheck.RankTxnGate)
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
		s.cnt[cDegradedTrips].Add(1)
	}
	if frac < s.opts.ShedFreeFrac {
		if s.shedding.CompareAndSwap(false, true) {
			s.cnt[cShedEnters].Add(1)
		}
	} else if frac >= 2*s.opts.ShedFreeFrac {
		s.shedding.CompareAndSwap(true, false)
	}
}

// noteFreeFrac records the lowest free-list fraction ever observed (the
// overload tests assert the pool never ran dry through Stats).
func (s *Server) noteFreeFrac(frac float64) {
	for {
		old := s.minFreeFrac.Load()
		if math.Float64frombits(old) <= frac {
			return
		}
		if s.minFreeFrac.CompareAndSwap(old, math.Float64bits(frac)) {
			return
		}
	}
}

// txnRetries bounds transparent retries of ErrConflict losers before the
// conflict surfaces to the client as 409.
const txnRetries = 3

// runTxn checks a core.Ctx out of the pool, runs fn inside a transaction
// (see doTxn), and then checkpoints if that left the log past its bound —
// after the gate is released, so the checkpointer never waits on itself.
func (s *Server) runTxn(reqCtx context.Context, fn func(cc *core.Ctx, txn *engine.Txn) error) error {
	cc := s.ctxPool.Get().(*core.Ctx)
	defer s.ctxPool.Put(cc)
	err := s.doTxn(reqCtx, cc, fn)
	s.maybeCheckpoint(cc)
	return err
}

// doTxn holds the transaction gate shared, installs the request deadline as
// cc's interrupt hook, and runs fn inside a transaction, retrying MVTO
// conflicts. The hook is cleared before any abort: abort restores
// before-images through the same Ctx, and cutting that short would leave
// torn tuples behind (see core.Ctx.SetInterrupt).
func (s *Server) doTxn(reqCtx context.Context, cc *core.Ctx, fn func(cc *core.Ctx, txn *engine.Txn) error) error {
	s.txnGate.lockShared(cc.Clock.Holder())
	defer s.txnGate.unlockShared(cc.Clock.Holder())
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
		s.cnt[cTxnRetries].Add(1)
	}
	return err
}
