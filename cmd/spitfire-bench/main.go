// Command spitfire-bench regenerates the tables and figures of the paper's
// evaluation (§6). Each experiment prints the same rows/series the paper
// reports, with throughput measured in operations per simulated second on
// the calibrated device models (see DESIGN.md for the substitution notes).
//
// Usage:
//
//	spitfire-bench list                 # show available experiments
//	spitfire-bench all [-quick]         # run everything in paper order
//	spitfire-bench fig6 [-quick]        # run one experiment
//	spitfire-bench fig14 fig15 -quick   # run several
//
// -quick shrinks database/buffer sizes by 4x (preserving every capacity
// ratio) and reduces operation counts, for fast sanity runs.
//
// Beyond the paper, extra-wear sweeps the wear-aware tuner and extra-admit
// compares probabilistic NVM admission with HyMem's admission queue.
//
// Simulated results repeat exactly for a given seed: stdout of
// `spitfire-bench -quick all` is checked in as quick_results.txt. The
// wall-clock time of each experiment goes to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/spitfire-db/spitfire/internal/harness"
	"github.com/spitfire-db/spitfire/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "shrink sizes and op counts for a fast run")
	seed := flag.Uint64("seed", 1, "workload random seed")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	obsAddr := flag.String("obs", "", "serve live metrics on this address (e.g. :8080): /metrics, /snapshot.json, /trace.json, /events.jsonl, /debug/pprof/")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON file (Perfetto-loadable) here on exit")
	progress := flag.Duration("progress", 0, "print a progress line to stderr at this interval (default 2s with -obs, off otherwise)")
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	if *obsAddr != "" || *traceFile != "" || *progress > 0 {
		cleanup := setupObs(*obsAddr, *traceFile, *progress)
		defer cleanup()
	}

	opts := harness.Opts{Quick: *quick, Seed: *seed}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "spitfire-bench: %v\n", err)
			os.Exit(1)
		}
	}

	switch args[0] {
	case "verify":
		t, ok, err := harness.Verify(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spitfire-bench: verify: %v\n", err)
			os.Exit(1)
		}
		t.Fprint(os.Stdout)
		if !ok {
			fmt.Fprintln(os.Stderr, "spitfire-bench: some paper claims FAILED")
			os.Exit(1)
		}
		fmt.Println("all paper claims reproduced")
		return
	case "list":
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-8s %s\n", e.Name, e.Description)
		}
		return
	case "all":
		for _, e := range harness.Experiments() {
			runOne(e, opts, *csvDir)
		}
		return
	case "torture":
		runTorture(args[1:], *seed)
		return
	}

	for _, name := range args {
		e, ok := harness.Lookup(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "spitfire-bench: unknown experiment %q (try `spitfire-bench list`)\n", name)
			os.Exit(2)
		}
		runOne(e, opts, *csvDir)
	}
}

// setupObs builds the process-wide observability instance, installs it as
// the harness default (every Env the experiments build attaches to it),
// optionally serves the live endpoints and a periodic stderr progress line,
// and returns a cleanup that writes the trace file and shuts everything
// down. Error paths that os.Exit lose the trace file; that is acceptable.
func setupObs(addr, traceFile string, progress time.Duration) (cleanup func()) {
	o := obs.New(obs.Config{})
	harness.SetDefaultObs(o)

	var srv *obs.Server
	if addr != "" {
		var err error
		srv, err = o.Serve(addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spitfire-bench: -obs %s: %v\n", addr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "spitfire-bench: live metrics on http://%s/ (/metrics, /snapshot.json, /trace.json, /debug/pprof/)\n", srv.Addr())
		if progress == 0 {
			progress = 2 * time.Second
		}
	}
	var stopProgress func()
	if progress > 0 {
		stopProgress = o.StartProgress(os.Stderr, progress)
	}
	return func() {
		if stopProgress != nil {
			stopProgress()
		}
		if traceFile != "" {
			f, err := os.Create(traceFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "spitfire-bench: -trace: %v\n", err)
			} else {
				if err := o.WriteChromeTrace(f); err != nil {
					fmt.Fprintf(os.Stderr, "spitfire-bench: -trace: %v\n", err)
				}
				f.Close()
				fmt.Fprintf(os.Stderr, "spitfire-bench: wrote Chrome trace to %s (open in Perfetto / chrome://tracing)\n", traceFile)
			}
		}
		if srv != nil {
			srv.Close()
		}
	}
}

func runOne(e harness.Experiment, opts harness.Opts, csvDir string) {
	fmt.Printf("--- %s: %s\n", e.Name, e.Description)
	start := time.Now()
	tables, err := e.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spitfire-bench: %s: %v\n", e.Name, err)
		os.Exit(1)
	}
	for _, t := range tables {
		t.Fprint(os.Stdout)
		if csvDir != "" {
			path := filepath.Join(csvDir, t.ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "spitfire-bench: %v\n", err)
				os.Exit(1)
			}
			if err := t.WriteCSV(f); err != nil {
				fmt.Fprintf(os.Stderr, "spitfire-bench: %v\n", err)
			}
			f.Close()
		}
	}
	fmt.Fprintf(os.Stderr, "    (%s in %.1fs wall clock)\n", e.Name, time.Since(start).Seconds())
}

// runTorture drives the crash-recovery torture harness (and, with -degraded,
// the two-tier degradation run) outside the paper's experiment set.
func runTorture(args []string, seed uint64) {
	fs := flag.NewFlagSet("torture", flag.ExitOnError)
	cycles := fs.Int("cycles", 100, "crash-recover cycles")
	workers := fs.Int("workers", 4, "writer goroutines")
	keys := fs.Int("keys", 2048, "distinct keys")
	ops := fs.Int("ops", 150, "updates per worker per cycle")
	transient := fs.Float64("transient", 0, "transient fault probability on the NVM data arena")
	finegrained := fs.Bool("finegrained", false, "torture the fine-grained (per-unit) loading path")
	shards := fs.Int("shards", 1, "WAL append shards (worker-affine regions of the WAL's NVM buffer)")
	degraded := fs.Bool("degraded", false, "also run the permanent-NVM-failure YCSB degradation check")
	verbose := fs.Bool("v", false, "log per-cycle progress")
	_ = fs.Parse(args)

	opts := harness.TortureOpts{
		Cycles: *cycles, Workers: *workers, Keys: *keys,
		OpsPerCycle: *ops, Seed: seed, TransientProb: *transient,
		FineGrained: *finegrained, Shards: *shards,
	}
	if *verbose {
		opts.Log = func(format string, a ...any) {
			fmt.Printf("  "+format+"\n", a...)
		}
	}
	start := time.Now()
	res, err := harness.Torture(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spitfire-bench: torture: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("torture: %d crash-recover cycles, %d commits, %d op errors, %d mid-run crashes, %d torn writes (%.1fs wall clock)\n",
		res.Cycles, res.Commits, res.OpErrors, res.MidRunTrips, res.TornWrites, time.Since(start).Seconds())
	fmt.Printf("torture: WAL recovery totals: %d buffer + %d file records, %d checksum mismatches, %d truncated-tail bytes, %d duplicate LSNs\n",
		res.Recovery.BufferRecords, res.Recovery.FileRecords,
		res.Recovery.ChecksumMismatches, res.Recovery.TruncatedTailBytes, res.Recovery.DuplicateLSNs)
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "torture: VIOLATION: %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Println("torture: zero invariant violations")

	if *degraded {
		dres, err := harness.Degraded(harness.DegradedOpts{Seed: seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "spitfire-bench: degraded: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("degraded: NVM tier failed permanently mid-run; %d commits (%d after degradation), %d op errors, %d orphaned pages — completed two-tier\n",
			dres.Committed, dres.TailCommits, dres.OpErrors, dres.Stats.NVMOrphanedPages)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `spitfire-bench regenerates the paper's tables and figures.

usage:
  spitfire-bench [-quick] [-seed N] [-csv DIR] [-obs ADDR] [-trace FILE] list | all | verify | torture | <experiment>...

-obs ADDR serves live observability over HTTP while experiments run:
/metrics (Prometheus text), /snapshot.json (interval deltas), /trace.json
(Chrome trace_event), /events.jsonl, and /debug/pprof/. -trace FILE writes
the Chrome trace at exit; -progress D prints periodic stderr stats.

verify runs quick-scale checks of the paper's headline qualitative claims
and exits non-zero if any fails.

torture runs the crash-recovery torture harness: randomized workloads killed
at injected crash points, recovered, and checked for lost or torn writes
(flags: -cycles -workers -keys -ops -transient -shards -degraded -v).

experiments:
`)
	for _, e := range harness.Experiments() {
		fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.Name, e.Description)
	}
}
