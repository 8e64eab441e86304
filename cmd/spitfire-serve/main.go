// Command spitfire-serve exposes the Spitfire engine as an HTTP KV service
// with production-shaped robustness: bounded admission queues (429/503 +
// Retry-After on overload), backpressure wired to the buffer manager's
// free-list and degraded-mode signals, read-only fallback on permanent NVM
// failure, and a signal-driven graceful drain that checkpoints before exit.
//
// Endpoints:
//
//	GET    /kv/get?key=N                 value bytes (404 when missing)
//	PUT    /kv/put?key=N                 body is the value; 204
//	DELETE /kv/delete?key=N              204 (404 when missing)
//	GET    /kv/scan?from=N&limit=M       JSONL {"key":..,"value":"<base64>"}
//	POST   /kv/txn                       {"ops":[{"op":"put","key":..,"value":..},...]}
//	GET    /healthz                      liveness probe (200 while the process serves)
//	GET    /readyz                       readiness probe (503 while draining/shedding/read-only)
//	GET    /stats.json                   admission + robustness counters
//	GET    /metrics, /snapshot.json, ... obs exposition (with -obs, default on)
//
// Every request accepts ?deadline_ms=D. SIGTERM/SIGINT starts the drain:
// readiness flips immediately, the listener stays up for -drain-grace so
// load balancers notice, then in-flight requests finish and the engine
// checkpoints before exit 0.
//
// The engine runs on the machine the experiment harness measures, described
// by one Spec and assembled by spitfire.Build: the 4 MiB log buffer shares
// the data arena's NVM device and the log file shares the page store's SSD,
// the page cleaners run on goroutines of their own, the WAL has one append
// shard per core, and the engine reports into the served Obs, so its fetch,
// eviction, device and cleaner histograms on /metrics are live. With
// -nvm-mb 0 the log buffer is priced as DRAM and group-commits to SSD.
//
// The server also checkpoints while it runs, so its log never outgrows the
// DRAM buffer: once the log written since the last checkpoint passes
// -dram-mb (or the 4 MiB NVM log buffer, if that is larger), the request
// that crossed the mark checkpoints before it answers. Requests that arrive
// meanwhile wait for that one checkpoint — spitfire_checkpoint_pause_wall_ns
// on /metrics — and none is refused for it; spitfire_wal_log_bytes is the
// log since the last checkpoint.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/spitfire-db/spitfire"
	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	dramMB := flag.Int("dram-mb", 16, "DRAM buffer pool size (MiB)")
	nvmMB := flag.Int("nvm-mb", 64, "NVM buffer pool size (MiB), 0 for two-tier")
	pol := flag.String("policy", "lazy", "migration policy: lazy or eager")
	maxVal := flag.Int("max-value", 256, "largest value size in bytes")
	maxInflight := flag.Int("max-inflight", 64, "global concurrent admitted requests")
	queueDepth := flag.Int("queue-depth", 0, "global admission queue depth (default 4x max-inflight)")
	perClient := flag.Int("per-client", 16, "per-client concurrent admitted requests")
	perClientQueue := flag.Int("per-client-queue", 32, "per-client admission queue depth")
	deadline := flag.Duration("deadline", 2*time.Second, "default per-request deadline")
	shedFrac := flag.Float64("shed-frac", 0.05, "shed load when the buffer free-list fraction drops below this")
	pressureEvery := flag.Duration("pressure-interval", 50*time.Millisecond, "buffer pressure sampling interval")
	drainGrace := flag.Duration("drain-grace", 500*time.Millisecond, "hold the listener open after the readiness flip before draining")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on waiting for in-flight requests during drain")
	withObs := flag.Bool("obs", true, "serve the observability endpoints (/metrics, /snapshot.json, ...)")
	seed := flag.Uint64("seed", 1, "base seed for per-request engine contexts")
	testHold := flag.Duration("test-hold", 0, "hold each admitted request this long before executing (overload-testing knob)")
	flag.Parse()

	p := spitfire.SpitfireLazy
	switch *pol {
	case "lazy":
	case "eager":
		p = spitfire.SpitfireEager
	default:
		fmt.Fprintf(os.Stderr, "spitfire-serve: unknown -policy %q (lazy or eager)\n", *pol)
		os.Exit(2)
	}

	var o *spitfire.Obs
	if *withObs {
		o = spitfire.NewObs(spitfire.ObsConfig{})
	}
	db, err := spitfire.Build(servedSpec(*dramMB, *nvmMB, p, o)).Open()
	if err != nil {
		fatal("engine", err)
	}
	db.BM().StartCleaners()
	kv, err := engine.OpenKV(db, 1, "kv", *maxVal)
	if err != nil {
		fatal("kv", err)
	}

	srv, err := server.New(server.Options{
		DB: db, KV: kv, Obs: o,
		MaxInflight:        *maxInflight,
		QueueDepth:         *queueDepth,
		PerClientInflight:  *perClient,
		PerClientQueue:     *perClientQueue,
		DefaultDeadline:    *deadline,
		ShedFreeFrac:       *shedFrac,
		PressureInterval:   *pressureEvery,
		DrainTimeout:       *drainTimeout,
		Seed:               *seed,
		TestHoldPerRequest: *testHold,
	})
	if err != nil {
		fatal("server", err)
	}
	if err := srv.Start(*addr); err != nil {
		fatal("listen", err)
	}
	fmt.Fprintf(os.Stderr, "spitfire-serve: serving on http://%s/ (dram %d MiB, nvm %d MiB, policy %s)\n",
		srv.Addr(), *dramMB, *nvmMB, *pol)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigc
	fmt.Fprintf(os.Stderr, "spitfire-serve: %s received, draining (grace %s)\n", sig, *drainGrace)

	// Two-phase drain: flip readiness first and keep answering for the
	// grace period so load balancers stop routing, then shut down, finish
	// in-flight requests, stop the cleaners and checkpoint.
	srv.StartDrain()
	time.Sleep(*drainGrace)
	if err := srv.Drain(); err != nil {
		fatal("drain", err)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "spitfire-serve: drained cleanly: %d accepted, %d completed, checkpoint ok\n",
		st.Accepted, st.Completed)
}

// servedSpec describes the served machine: the hierarchy the experiment
// harness measures (the data arena and the log buffer share one NVM device,
// the page store and the log share one SSD), with a 4 MiB log buffer and one
// append shard per core. Its cleaners are the harness's too: main runs them
// on goroutines (StartCleaners) where the harness steps them.
func servedSpec(dramMB, nvmMB int, p spitfire.Policy, o *spitfire.Obs) spitfire.Spec {
	return spitfire.Spec{
		DRAMBytes: int64(dramMB) << 20,
		NVMBytes:  int64(nvmMB) << 20,
		Policy:    p,
		WALBuffer: 4 << 20,
		WALShards: spitfire.RecommendedWALShards(),
		Obs:       o,
	}
}

func fatal(what string, err error) {
	fmt.Fprintf(os.Stderr, "spitfire-serve: %s: %v\n", what, err)
	os.Exit(1)
}
