package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// runEnvelope is the part of a run's envelope that sets and comparisons read.
type runEnvelope struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Correct  bool              `json:"correct"`
	Metrics  map[string]mvalue `json:"metrics"`
}

type quartileSummary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type workloadSet struct {
	Runs    []json.RawMessage          `json:"runs"`
	Traced  json.RawMessage            `json:"traced,omitempty"`
	Summary map[string]quartileSummary `json:"summary"`
}

type benchSet struct {
	Schema     string                  `json:"schema"`
	Time       string                  `json:"time"`
	Commit     string                  `json:"commit"`
	Host       string                  `json:"host"`
	NProc      int                     `json:"nproc"`
	GoMaxProcs int                     `json:"gomaxprocs"`
	Go         string                  `json:"go"`
	Seed       uint64                  `json:"seed"`
	Seconds    float64                 `json:"seconds"`
	Quick      bool                    `json:"quick"`
	Workloads  map[string]*workloadSet `json:"workloads"`
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) computes them (the exclusive
// method), because that is what the benchmark driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := slices.Clone(values)
	slices.Sort(d)
	n := len(d)
	if n < 2 {
		if n == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runSet runs each workload (all four unless -workload names one) runs times
// untraced and once traced, every run a fresh process of this same binary
// and run i on seed cfg.seed*1000+i, and writes the set file.
func runSet(cfg *config, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	if slices.Contains(names, "serve-http") {
		if err := cfg.ensureServer(); err != nil {
			return fail(err)
		}
	}
	tmp, err := os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "set")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)

	host, _ := os.Hostname()
	set := &benchSet{
		Schema: "spitfire-bench-set/1", Time: time.Now().UTC().Format(time.RFC3339),
		Commit: gitCommit(cfg.root), Host: host, NProc: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick,
		Workloads: make(map[string]*workloadSet),
	}
	one := func(name string, seed uint64, trace int) (json.RawMessage, *runEnvelope, error) {
		file := filepath.Join(tmp, "run.json")
		args := []string{"--workload", name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
			"-server-bin", cfg.serverBin, "-out", file}
		if cfg.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Dir = cfg.root
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, nil, fmt.Errorf("%s seed %d trace %d: %w", name, seed, trace, err)
		}
		raw, err := os.ReadFile(file)
		if err != nil {
			return nil, nil, err
		}
		var env runEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			return nil, nil, err
		}
		if !env.Correct {
			return nil, nil, fmt.Errorf("%s seed %d trace %d: output checks failed", name, seed, trace)
		}
		return raw, &env, nil
	}
	for _, name := range names {
		ws := &workloadSet{}
		set.Workloads[name] = ws
		var envs []*runEnvelope
		for i := 0; i < runs; i++ {
			raw, env, err := one(name, cfg.seed*1000+uint64(i), 0)
			if err != nil {
				return fail(err)
			}
			ws.Runs = append(ws.Runs, raw)
			envs = append(envs, env)
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d: %.6g ops/s\n", name, i+1, runs, env.Metrics["ops_per_s"].Value)
		}
		ws.Summary = summarize(envs)
		raw, _, err := one(name, cfg.seed*1000, 1)
		if err != nil {
			return fail(err)
		}
		ws.Traced = raw
		fmt.Fprintf(os.Stderr, "bench: %s traced run done\n", name)
	}
	if err := writeJSON(out, set); err != nil {
		return fail(err)
	}
	return 0
}

func loadSet(path string) (*benchSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// summarize reduces a workload's runs to median and quartiles per
// end-to-end metric.
func summarize(envs []*runEnvelope) map[string]quartileSummary {
	out := make(map[string]quartileSummary, len(endToEnd))
	for _, d := range endToEnd {
		var v []float64
		for _, e := range envs {
			v = append(v, e.Metrics[d.Name].Value)
		}
		q1, q2, q3 := quartiles(v)
		out[d.Name] = quartileSummary{Unit: d.Unit, N: len(v), Median: q2, Q1: q1, Q3: q3}
	}
	return out
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians and quartiles, how much worse B's median is than A's as a share of
// A's, and the bound from BENCHMARK.json. "regressed" means past the bound;
// "unresolved" means A's own quartile spread is wider than the bound, so the
// comparison cannot tell. It returns 1 if anything regressed, else 0.
func compareSets(root, pathA, pathB string) int {
	spec, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	a, err := loadSet(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := loadSet(pathB)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("A: %s  commit %s  %s  seed %d\nB: %s  commit %s  %s  seed %d\n\n",
		pathA, a.Commit, a.Time, a.Seed, pathB, b.Commit, b.Time, b.Seed)
	fmt.Printf("%-11s %-12s %-6s %34s %34s %9s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "worse by", "bound", "verdict")
	regressed := 0
	for _, wl := range spec.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := wa.Summary[m.Name], wb.Summary[m.Name]
			a1, a2, a3 := sa.Q1, sa.Median, sa.Q3
			b1, b2, b3 := sb.Q1, sb.Median, sb.Q3
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed++
			case (a3-a1)/a2 > m.Bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-11s %-12s %-6s %34s %34s %+8.1f%% %5.0f%%  %s\n", wl.Name, m.Name, m.Unit,
				fmt.Sprintf("%.5g [%.5g, %.5g]", a2, a1, a3), fmt.Sprintf("%.5g [%.5g, %.5g]", b2, b1, b3),
				100*worse, 100*m.Bound, verdict)
		}
	}
	if regressed > 0 {
		fmt.Printf("\n%d metric(s) past their bound\n", regressed)
		return 1
	}
	return 0
}
