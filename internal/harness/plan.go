package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"github.com/spitfire-db/spitfire/internal/anneal"
	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/policy"
)

// Table is one reproduced table or figure, as rows of formatted cells.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// WriteCSV emits the table as CSV (header row first), for plotting the
// figures outside the terminal.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Opts tunes experiment scale. Quick shrinks database/buffer sizes and
// operation counts for tests; the CLI runs full scale by default.
type Opts struct {
	Quick bool
	// Seed offsets workload randomness (default 1).
	Seed uint64
}

func (o Opts) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// sz converts "paper GB" to simulated bytes at the current scale: quick mode
// divides every size by four, preserving every capacity ratio. Positive
// sizes are floored at 64 KiB so a shrunk tier still holds a few frames; 0
// stays 0, which is how a hierarchy says a tier is absent.
func (o Opts) sz(gb float64) int64 {
	b := int64(gb * float64(MB))
	if o.Quick {
		b /= 4
	}
	if b > 0 && b < 64*1024 {
		b = 64 * 1024
	}
	return b
}

// ops scales a per-worker operation count.
func (o Opts) ops(full int) int {
	if o.Quick {
		n := full / 8
		if n < 200 {
			n = 200
		}
		return n
	}
	return full
}

// point is one measurement of the evaluation: a hierarchy and database in
// the paper's GB, a workload, and how long to drive it. Every figure, claim
// and extra is a list of points and Opts.measure is the only code that turns
// one into an Env, so the plan can be enumerated and checked without running
// it (TestEveryPlannedPointIsValid).
type point struct {
	// Buffer capacities, memory-mode hardware cache and database size in
	// paper-GB (Opts.sz scales them). A tier written as 0 is absent.
	dram, nvm, memMode, db float64
	pol                    policy.Policy

	// HyMem's optimizations (§6.5): fine-grained loading in units of `unit`
	// bytes, and mini pages on top of it.
	fine bool
	unit int
	mini bool

	wl      WorkloadKind
	theta   float64            // YCSB skew; 0 takes the default 0.3
	cleaner core.CleanerConfig // zero (off) on every paper-shape point

	workers int
	warm    int     // per-worker warm-up floor, raised until the buffers fill (Env.WarmupOps)
	ops     int     // per-worker operations of the measured interval, or of each epoch
	cold    bool    // no warm-up: the interval includes populating the buffers
	tune    *tuning // non-nil: an annealing run instead of one interval
}

// on places a hierarchy under a workload and a database of db paper-GB.
func (p point) on(wl WorkloadKind, db float64) point {
	p.wl, p.db = wl, db
	return p
}

// drive sets the worker count and the per-worker warm-up floor and measured
// operations (scaled with Opts.ops by the caller where the paper scales).
func (p point) drive(workers, warm, ops int) point {
	p.workers, p.warm, p.ops = workers, warm, ops
	return p
}

// tuning makes a point the adaptive experiment of §6.4: from the point's
// policy, the simulated-annealing tuner (the paper's α, γ, T0, Tmin; D and N
// each in lockstep, as in §6.3) proposes a policy, an epoch of p.ops
// operations per worker measures it, and the outcome picks the next.
type tuning struct {
	epochs int
	stride uint64                // epoch ep runs on seed + ep·stride
	wear   *anneal.WearAwareCost // nil: the paper's throughput-only cost γ/T
}

// result is one measured interval and the policy it ran under. A tuned
// point's result holds its epochs, in order, instead.
type result struct {
	PointResult
	pol    policy.Policy
	epochs []result
}

// nvmWriteRate is the interval's NVM wear in bytes per simulated second.
func (r PointResult) nvmWriteRate() float64 {
	if r.ElapsedSec <= 0 {
		return 0
	}
	return float64(r.NVMBytesWritten) / r.ElapsedSec
}

// env scales a point to the EnvConfig that measure builds.
func (o Opts) env(p point) EnvConfig {
	return EnvConfig{
		DRAMBytes:      o.sz(p.dram),
		NVMBytes:       o.sz(p.nvm),
		MemoryModeDRAM: o.sz(p.memMode),
		Policy:         p.pol,
		FineGrained:    p.fine,
		LoadingUnit:    p.unit,
		MiniPages:      p.mini,
		Workload:       p.wl,
		DBBytes:        o.sz(p.db),
		Theta:          p.theta,
		Cleaner:        p.cleaner,
	}
}

// measure builds the point's environment, warms it until the buffers are
// full (unless the point is cold) and runs its interval, or its tuning
// epochs. The seeds are those full_results.txt was recorded with: a warmed
// interval runs on seed+7, a cold one on the seed, epoch ep on seed+ep·stride.
func (o Opts) measure(p point) (result, error) {
	e, err := NewEnv(o.env(p))
	if err != nil {
		return result{}, err
	}
	defer e.Close() // a point's cleaner must not bleed into the next
	seed := o.seed()
	if !p.cold {
		if err := e.Warmup(p.workers, e.WarmupOps(p.workers, p.warm), seed); err != nil {
			return result{}, err
		}
	}
	if p.tune == nil {
		if !p.cold {
			seed += 7
		}
		r, err := e.Run(p.workers, p.ops, seed)
		return result{PointResult: r, pol: p.pol}, err
	}

	tn := anneal.New(anneal.Options{
		Initial:   p.pol,
		LockstepD: true,
		LockstepN: true,
		Seed:      seed,
		OnEpoch:   e.PolicyStepHook(),
	})
	var out result
	cand := tn.Propose()
	for ep := 0; ep < p.tune.epochs; ep++ {
		if err := e.SetPolicy(cand); err != nil {
			return result{}, err
		}
		r, err := e.Run(p.workers, p.ops, seed+uint64(ep)*p.tune.stride)
		if err != nil {
			return result{}, err
		}
		out.epochs = append(out.epochs, result{PointResult: r, pol: cand})
		if w := p.tune.wear; w != nil {
			cand = tn.ObserveWear(*w, r.Throughput, r.nvmWriteRate())
		} else {
			cand = tn.Observe(r.Throughput)
		}
	}
	return out, nil
}

// measureAll measures points in order.
func (o Opts) measureAll(points []point) ([]result, error) {
	out := make([]result, len(points))
	for i, p := range points {
		var err error
		if out[i], err = o.measure(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// spec is one table or figure as data: groups of points in run order, each
// with the function that turns the group's results into table rows.
type spec struct {
	id, title string
	header    []string
	groups    []group
}

type group struct {
	points []point
	rows   func([]result) [][]string
}

// one is the spec list of an experiment that prints a single table.
func one(id, title string, header []string, groups []group) []spec {
	return []spec{{id, title, header, groups}}
}

// fixed is a group that measures nothing: rows of constants.
func fixed(rows ...[]string) []group {
	return []group{{rows: func([]result) [][]string { return rows }}}
}

// row is the common group: one table row, the label cells followed by one
// formatted cell per point.
func row(cell func(result) string, points []point, label ...string) group {
	return group{points, func(rs []result) [][]string {
		cells := append([]string(nil), label...)
		for _, r := range rs {
			cells = append(cells, cell(r))
		}
		return [][]string{cells}
	}}
}

// single is a one-point group: the point's result becomes one table row.
func single(p point, cells func(result) []string) group {
	return group{[]point{p}, func(rs []result) [][]string { return [][]string{cells(rs[0])} }}
}

// Cell formatters.
func kops(v float64) string { return fmt.Sprintf("%.1f", v/1000) }

func mbs(bytes int64) string { return fmt.Sprintf("%.2f", float64(bytes)/float64(MB)) }

func throughput(r result) string { return kops(r.Throughput) }

func nvmWritten(r result) string { return mbs(r.NVMBytesWritten) }

// headerOf appends one %g column per value to the fixed leading columns.
func headerOf(lead []string, cols []float64) []string {
	for _, c := range cols {
		lead = append(lead, fmt.Sprintf("%g", c))
	}
	return lead
}

// Experiment is a named, runnable reproduction of one table or figure.
type Experiment struct {
	Name        string
	Description string
	tables      func(Opts) []spec
}

// Run measures every point of the experiment and renders its tables.
func (e Experiment) Run(o Opts) ([]*Table, error) {
	var out []*Table
	for _, s := range e.tables(o) {
		t := &Table{ID: s.id, Title: s.title, Header: s.header}
		for _, g := range s.groups {
			rs, err := o.measureAll(g.points)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, g.rows(rs)...)
		}
		out = append(out, t)
	}
	return out, nil
}

// Experiments lists every reproduced table and figure in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Device characteristics (calibration constants)", table1},
		{"fig5", "Equi-cost NVM-SSD vs memory-mode DRAM-SSD across DB sizes (§6.2)", fig5},
		{"table2", "Inclusivity ratio across D and N sweeps (§3.3)", table2},
		{"fig6", "Throughput vs DRAM migration probability D (§6.3)",
			figSweep("fig6", "Bypassing DRAM: throughput (kops/s) vs D (N=1)", true)},
		{"fig7", "Throughput vs NVM migration probability N (§6.3)",
			figSweep("fig7", "Bypassing NVM: throughput (kops/s) vs N (D=1)", false)},
		{"fig8", "NVM write volume vs N (§6.3)", fig8},
		{"fig9", "Optimal D vs DRAM:NVM capacity ratio (§6.3)", fig9},
		{"fig10", "Adaptive data migration via simulated annealing (§6.4)", fig10},
		{"fig11", "Loading-unit granularity on Optane (§6.5)", fig11},
		{"fig12", "Ablation of HyMem's optimizations (§6.5)", fig12},
		{"fig13", "NVM device lifetime: HyMem vs Spitfire-Lazy (§6.5)", fig13},
		{"fig14", "Storage-system design grid search (§6.6)", fig14},
		{"fig15", "Database-size sweep over five configurations (§6.7)", fig15},
		{"extra-wear", "Wear-aware adaptive tuning, λ sweep (extension beyond the paper)", extraWear},
		{"extra-cleaner", "Background cleaner watermark/batch sweep (extension beyond the paper)", extraCleaner},
		{"extra-admit", "NVM admission: HyMem queue vs cleaner-fed queue (extension beyond the paper)", extraAdmit},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
