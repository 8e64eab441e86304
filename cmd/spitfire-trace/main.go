// Command spitfire-trace replays a recorded key-value trace against a
// configurable storage hierarchy and migration policy — the storage-system
// design question of §5.3, answered for a real workload.
//
// Usage:
//
//	spitfire-trace gen -ops 100000 -keys 50000 -theta 0.5 -writes 30 > trace.txt
//	spitfire-trace replay -dram 8 -nvm 32 -policy lazy  < trace.txt
//	spitfire-trace replay -dram 8 -nvm 32 -policy eager -workers 8 trace.txt
//	spitfire-trace diff before-snapshot.json after-snapshot.json
//
// A replay is the harness's Trace workload: it builds the machine the
// harness measures (WAL and periodic checkpoints included) and steps the
// workers in simulated-time order, so it repeats exactly.
//
// Sizes are in MB. Policies: lazy (Spitfire-Lazy), eager (Spitfire-Eager),
// hymem (HyMem with the admission queue), or a custom tuple
// "dr,dw,nr,nw" such as "0.01,0.01,0.2,1".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/spitfire-db/spitfire/internal/design"
	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/harness"
	"github.com/spitfire-db/spitfire/internal/obs"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/tracereplay"
)

const mb = 1 << 20

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "gen":
		gen(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "compare":
		compare(os.Args[2:])
	case "diff":
		diff(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

// compare replays one trace across equi-cost hierarchies and prints them
// best-first in design.Search order — the §5.3 design question answered for
// a recorded workload.
func compare(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	budget := fs.Float64("budget", 64, "memory budget: the price of this many MB of DRAM, split between DRAM and NVM at Table 1's prices")
	workers := fs.Int("workers", 4, "concurrent workers")
	tupleSize := fs.Int("tuple", 1000, "tuple payload size in bytes")
	fs.Parse(args)

	in := io.Reader(os.Stdin)
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	ops, err := tracereplay.Parse(in)
	if err != nil {
		fatal(err)
	}

	// Candidate splits of the dollar budget between DRAM and NVM at Table 1's
	// prices; sizes are MB, so one "GB" of a design.Hierarchy is one MB here.
	dollars := design.Cost(design.Hierarchy{DRAMGB: *budget})
	var cands []design.Hierarchy
	for _, frac := range []float64{1, 0.75, 0.5, 0.25, 0} { // share of the budget spent on DRAM
		d := design.Hierarchy{DRAMGB: *budget * frac}
		d.NVMGB = (dollars - design.Cost(d)) / design.Cost(design.Hierarchy{NVMGB: 1})
		cands = append(cands, d)
	}

	// A hierarchy's throughput is that of its better policy; a single-tier
	// hierarchy has no migrations between buffers, so lazy alone stands in.
	type run struct {
		pol string
		res harness.PointResult
	}
	best := map[design.Hierarchy]run{}
	ranked := design.Search(cands, func(h design.Hierarchy) float64 {
		for _, pc := range []struct {
			name string
			p    policy.Policy
		}{{"lazy", policy.SpitfireLazy}, {"eager", policy.SpitfireEager}} {
			if pc.name == "eager" && (h.DRAMGB == 0 || h.NVMGB == 0) {
				continue
			}
			res, err := replayOn(engine.Spec{
				DRAMBytes: int64(h.DRAMGB * mb),
				NVMBytes:  int64(h.NVMGB * mb),
				Policy:    pc.p,
			}, ops, *workers, *tupleSize)
			if err != nil {
				fatal(err)
			}
			if res.Throughput > best[h].res.Throughput {
				best[h] = run{pc.name, res}
			}
		}
		return best[h].res.Throughput
	})

	fmt.Printf("%10s %10s %8s %10s %10s\n", "DRAM MB", "NVM MB", "policy", "kops/s", "p99 us")
	for _, r := range ranked {
		b := best[r.Hierarchy]
		fmt.Printf("%10.1f %10.1f %8s %10.1f %10.1f\n", r.Hierarchy.DRAMGB, r.Hierarchy.NVMGB,
			b.pol, b.res.Throughput/1000, float64(b.res.LatencyP99Ns)/1000)
	}
}

func gen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	ops := fs.Int("ops", 100_000, "operations to generate")
	keys := fs.Uint64("keys", 50_000, "key-space size")
	theta := fs.Float64("theta", 0.5, "zipfian skew (0 = uniform)")
	writes := fs.Int("writes", 30, "write percentage")
	seed := fs.Uint64("seed", 1, "random seed")
	fs.Parse(args)
	if err := tracereplay.Generate(os.Stdout, *ops, *keys, *theta, *writes, *seed); err != nil {
		fatal(err)
	}
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	dram := fs.Float64("dram", 8, "DRAM buffer size in MB (0 disables)")
	nvm := fs.Float64("nvm", 32, "NVM buffer size in MB (0 disables)")
	pol := fs.String("policy", "lazy", "lazy | eager | hymem | dr,dw,nr,nw")
	workers := fs.Int("workers", 4, "concurrent workers")
	tupleSize := fs.Int("tuple", 1000, "tuple payload size in bytes")
	obsAddr := fs.String("obs", "", "serve live metrics on this address during the replay (/metrics, /snapshot.json, /debug/pprof/)")
	traceOut := fs.String("traceout", "", "write a Chrome trace_event JSON of buffer migrations here")
	fs.Parse(args)

	in := io.Reader(os.Stdin)
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	} else if fs.NArg() > 1 {
		fatal(fmt.Errorf("at most one trace file"))
	}

	ops, err := tracereplay.Parse(in)
	if err != nil {
		fatal(err)
	}
	p, err := parsePolicy(*pol)
	if err != nil {
		fatal(err)
	}
	var o *obs.Obs
	if *obsAddr != "" || *traceOut != "" {
		o = obs.New(obs.Config{})
		if *obsAddr != "" {
			srv, err := o.Serve(*obsAddr)
			if err != nil {
				fatal(err)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "spitfire-trace: live metrics on http://%s/\n", srv.Addr())
			defer o.StartProgress(os.Stderr, 2*time.Second)()
		}
	}
	res, err := replayOn(engine.Spec{
		DRAMBytes: int64(*dram * mb),
		NVMBytes:  int64(*nvm * mb),
		Policy:    p,
		Obs:       o,
	}, ops, *workers, *tupleSize)
	if err != nil {
		fatal(err)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := o.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "spitfire-trace: wrote Chrome trace to %s\n", *traceOut)
	}

	fmt.Printf("trace:        %d ops (%d committed, %d aborted)\n", len(ops), res.Committed, res.Aborted)
	fmt.Printf("hierarchy:    DRAM %.0f MB + NVM %.0f MB + SSD, policy %v\n", *dram, *nvm, p)
	fmt.Printf("throughput:   %.1f kops per simulated second\n", res.Throughput/1000)
	fmt.Printf("latency:      p50 <= %d ns, p99 <= %d ns (simulated)\n", res.LatencyP50Ns, res.LatencyP99Ns)
	fmt.Printf("inclusivity:  %.3f\n", res.Inclusivity)
	s := res.Stats
	fmt.Printf("served from:  DRAM %d | NVM %d | SSD %d\n", s.HitDRAM+s.HitMini, s.HitNVM, s.MissSSD)
	fmt.Printf("migrations:   NVM->DRAM %d | SSD->NVM %d | SSD->DRAM %d | DRAM->NVM %d | NVM->SSD %d\n",
		s.NVMToDRAM, s.SSDToNVM, s.SSDToDRAM, s.DRAMToNVM, s.NVMToSSD)
}

// replayOn replays the whole trace once, split round-robin between the
// workers, on a fresh machine built from spec.
func replayOn(spec engine.Spec, ops []tracereplay.Op, workers, tupleSize int) (harness.PointResult, error) {
	e, err := harness.NewEnv(harness.EnvConfig{Spec: spec, Workload: harness.Trace, Trace: ops, TraceTuple: tupleSize})
	if err != nil {
		return harness.PointResult{}, err
	}
	return e.Run(workers, len(ops), 0x7ACE0)
}

func parsePolicy(s string) (policy.Policy, error) {
	switch strings.ToLower(s) {
	case "lazy":
		return policy.SpitfireLazy, nil
	case "eager":
		return policy.SpitfireEager, nil
	case "hymem":
		return policy.Hymem, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return policy.Policy{}, fmt.Errorf("policy %q: want lazy|eager|hymem or dr,dw,nr,nw", s)
	}
	var vals [4]float64
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return policy.Policy{}, fmt.Errorf("policy %q: %v", s, err)
		}
		vals[i] = v
	}
	p := policy.Policy{Dr: vals[0], Dw: vals[1], Nr: vals[2], Nw: vals[3]}
	return p, p.Validate()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spitfire-trace:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprint(os.Stderr, `spitfire-trace replays key-value traces against storage hierarchies.

usage:
  spitfire-trace gen     [-ops N] [-keys N] [-theta F] [-writes PCT] [-seed N]
  spitfire-trace replay  [-dram MB] [-nvm MB] [-policy P] [-workers N] [-tuple BYTES] [-obs ADDR] [-traceout FILE] [trace-file]
  spitfire-trace compare [-budget MB] [-workers N] [-tuple BYTES] [trace-file]
  spitfire-trace diff    [-all] before-snapshot.json after-snapshot.json
`)
}
