// Command bench is the repository's benchmark: four closed-loop workloads
// over the buffer manager, the in-process KV engine and the real
// spitfire-serve binary, measured from outside. See README.md.
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash bench/run.sh -runs 5 -out A.json            # a set: every workload, 5 fresh processes each
//	bash bench/run.sh -compare A.json B.json         # the regression gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	cfg := &config{}
	var (
		trace   int
		runs    int
		out     string
		compare bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloadNames, ", ")+" (with -runs: empty means all)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "test scale: op counts ÷ 200, a fixed handful of segments")
	flag.StringVar(&cfg.serverBin, "server-bin", "", "spitfire-serve binary for serve-http (default: build it under .bench_build/)")
	flag.IntVar(&runs, "runs", 0, "repeat the workload this many times in fresh processes, plus one traced run, and write the set to -out")
	flag.StringVar(&out, "out", "", "write the result envelope (or, with -runs, the set) to this file")
	flag.BoolVar(&compare, "compare", false, "compare two set files: -compare A.json B.json; exit 1 if B is worse than A past a bound")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.workers = min(2, runtime.GOMAXPROCS(0))

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	cfg.root = root
	if compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two set files"))
		}
		return compareSets(root, flag.Arg(0), flag.Arg(1))
	}
	if runs > 0 {
		if out == "" {
			return fail(fmt.Errorf("-runs needs -out FILE"))
		}
		return runSet(cfg, runs, out)
	}

	// A signal must not leave a server behind.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		killLive()
		os.Exit(130)
	}()

	if cfg.workload == "serve-http" {
		if err := cfg.ensureServer(); err != nil {
			return fail(err)
		}
	}
	var res *result
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		res, err = traced(cfg)
	} else {
		res, err = measure(cfg)
	}
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	if out != "" {
		if err := writeJSON(out, envelope(cfg, res)); err != nil {
			return fail(err)
		}
	}
	printResult(cfg, res, defs, line)
	return 0
}

// ensureServer builds spitfire-serve under .bench_build/ unless -server-bin
// named one. It runs before anything is timed: go build is not set-up.
func (cfg *config) ensureServer() (err error) {
	if cfg.serverBin == "" {
		cfg.serverBin, err = buildServer(cfg.root, filepath.Join(cfg.root, ".bench_build"))
	}
	return err
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// envelope is a run's result with everything needed to place it on the
// trajectory: where it ran, on what, and the raw per-segment figures.
func envelope(cfg *config, r *result) map[string]any {
	host, _ := os.Hostname()
	e := map[string]any{
		"schema":     "spitfire-bench-run/1",
		"time":       time.Now().UTC().Format(time.RFC3339),
		"commit":     gitCommit(cfg.root),
		"host":       host,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"quick":      cfg.quick,
		"correct":    r.Correct,
		"attempted":  r.Attempted,
		"failed":     r.Failed,
		"metrics":    r.Metrics,
	}
	for k, v := range r.Info {
		e[k] = v
	}
	return e
}

// gitCommit names the checkout's commit, or "unknown" outside a git work
// tree (the benchmark driver's checkouts are plain directories).
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
