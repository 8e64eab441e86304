package harness

import (
	"fmt"
	"strings"

	"github.com/spitfire-db/spitfire/internal/policy"
)

// Claim is one qualitative statement from the paper's evaluation that the
// reproduction must uphold (direction/ordering, not absolute numbers): the
// points it measures — built by the constructors its figure uses — and a
// predicate over their results.
type Claim struct {
	ID        string
	Statement string
	points    func(o Opts) []point
	holds     func(r []result) (detail string, ok bool)
}

// Verify runs every claim at quick scale and reports PASS/FAIL. Because
// short multi-worker runs carry scheduling-induced variance (real goroutine
// interleaving perturbs virtual device-queue ordering), each claim is tried
// on three seeds and passes on a majority. It returns ok=false if any claim
// fails.
func Verify(o Opts) (*Table, bool, error) {
	t := &Table{
		ID:     "verify",
		Title:  "Paper-claim verification (quick scale, best 2 of 3 seeds)",
		Header: []string{"claim", "status", "statement", "measured"},
	}
	allOK := true
	for _, c := range Claims() {
		passes := 0
		var details []string
		for trial := uint64(0); trial < 3; trial++ {
			to := o
			to.Seed = o.seed() + trial*1000003
			rs, err := to.measureAll(c.points(to))
			if err != nil {
				return nil, false, fmt.Errorf("claim %s: %w", c.ID, err)
			}
			detail, ok := c.holds(rs)
			if ok {
				passes++
			}
			details = append(details, detail)
			if passes == 2 || passes+int(3-trial-1) < 2 {
				break // outcome decided
			}
		}
		status := "PASS"
		if passes < 2 {
			status = "FAIL"
			allOK = false
		}
		t.Rows = append(t.Rows, []string{c.ID, status, c.Statement, strings.Join(details, " | ")})
	}
	return t, allOK, nil
}

// Claims lists the checks in paper order.
func Claims() []Claim {
	// twoTier is the shape of C1 and C10: a DRAM-SSD and an NVM-SSD hierarchy
	// of equal cost, eight workers, on a database that fits and one that does
	// not. Points run DRAM-small, NVM-small, DRAM-big, NVM-big.
	twoTier := func(wl WorkloadKind, dram, nvm point, small, big float64) func(Opts) []point {
		return func(o Opts) []point {
			var ps []point
			for _, db := range []float64{small, big} {
				for _, h := range []point{dram, nvm} {
					ps = append(ps, h.on(wl, db).drive(8, o.ops(2000), o.ops(3000)))
				}
			}
			return ps
		}
	}
	// sweepRO is YCSB-RO at the given D or N values of the §6.3 sweep.
	sweepRO := func(sweepD bool, probs ...float64) func(Opts) []point {
		return func(o Opts) []point { return sweep(o, YCSBRO, sweepD, 8, probs) }
	}
	return []Claim{
		{
			ID:        "C1-fig5",
			Statement: "memory-mode DRAM-SSD competitive while cacheable (paper: wins by <=1.12x); NVM-SSD wins clearly once the DB outgrows it (§6.2)",
			points:    twoTier(YCSBRO, memoryMode, appDirect, 20, 280),
			holds: func(r []result) (string, bool) {
				memSmall, nvmSmall, memBig, nvmBig := r[0].Throughput, r[1].Throughput, r[2].Throughput, r[3].Throughput
				detail := fmt.Sprintf("cacheable mem/nvm=%.2f, uncacheable nvm/mem=%.2f",
					memSmall/nvmSmall, nvmBig/memBig)
				return detail, memSmall > 0.8*nvmSmall && nvmBig > 1.5*memBig
			},
		},
		{
			ID:        "C2-table2",
			Statement: "inclusivity is 0 at D=0 and grows monotonically with D (§3.3)",
			points:    sweepRO(true, 0, 0.01, 1),
			holds: func(r []result) (string, bool) {
				i0, iLazy, iEager := r[0].Inclusivity, r[1].Inclusivity, r[2].Inclusivity
				return fmt.Sprintf("0 -> %.3f -> %.3f", iLazy, iEager), i0 == 0 && iLazy > 0 && iEager > iLazy
			},
		},
		{
			ID:        "C3-fig6",
			Statement: "lazy D beats eager D=1, and D=0 trails the lazy peak (YCSB-RO, §6.3)",
			points:    sweepRO(true, sweepProbs...),
			holds: func(r []result) (string, bool) {
				t0, t1 := r[0].Throughput, r[3].Throughput
				peak := max(r[1].Throughput, r[2].Throughput)
				return fmt.Sprintf("peak/eager=%.2f, D0/peak=%.2f", peak/t1, t0/peak), peak > t1 && t0 < peak
			},
		},
		{
			ID:        "C4-fig7",
			Statement: "lazy N beats N=0 (disabled NVM shrinks the buffer 6x, §6.3)",
			points:    sweepRO(false, 0, 0.01),
			holds: func(r []result) (string, bool) {
				n0, lazy := r[0].Throughput, r[1].Throughput
				return fmt.Sprintf("lazy/N0=%.2f", lazy/n0), lazy > n0
			},
		},
		{
			ID:        "C5-fig8",
			Statement: "lazy N slashes NVM writes on YCSB-RO (paper: ~92x; require >=5x, §6.3)",
			points:    sweepRO(false, 0.01, 1),
			holds: func(r []result) (string, bool) {
				ratio := float64(r[1].NVMBytesWritten) / float64(max(r[0].NVMBytesWritten, 1))
				return fmt.Sprintf("eager/lazy=%.1fx", ratio), ratio >= 5
			},
		},
		{
			ID:        "C7-fig10",
			Statement: "annealing from the eager policy improves YCSB-RO throughput (paper: +52%, require >=20%, §6.4)",
			points: func(o Opts) []point {
				// One worker, so the run is deterministic; epochs long
				// enough at quick scale for the tuner to tell policies apart.
				return []point{adaptive(YCSBRO, 1, o.ops(1500), max(o.ops(3000), 1500), tuning{epochs: 40, stride: 13})}
			},
			holds: func(r []result) (string, bool) {
				first, best := firstAndBest(r[0].epochs)
				return fmt.Sprintf("best/first=%.2f", best/first), best >= 1.2*first
			},
		},
		{
			ID:        "C8-fig11",
			Statement: "64 B loading units move more NVM media bytes than 256 B (I/O amplification, §6.5)",
			points: func(o Opts) []point {
				return []point{loadingUnitPoint(o, 64, 2000, 4000), loadingUnitPoint(o, 256, 2000, 4000)}
			},
			holds: func(r []result) (string, bool) {
				r64, r256 := r[0].NVMBytesRead, r[1].NVMBytesRead
				return fmt.Sprintf("64B/256B media reads = %.2fx", float64(r64)/float64(max(r256, 1))), r64 > r256
			},
		},
		{
			ID:        "C9-fig12",
			Statement: "the migration policy dominates: lazy without optimizations beats HyMem with all of them (§6.5)",
			points: func(o Opts) []point {
				return []point{
					hymemRig(o, YCSBRO, policy.SpitfireLazy, false, false, 2000, 4000),
					hymemRig(o, YCSBRO, policy.Hymem, true, true, 2000, 4000),
				}
			},
			holds: func(r []result) (string, bool) {
				ratio := r[0].Throughput / r[1].Throughput
				return fmt.Sprintf("lazy-plain/hymem-full=%.2f", ratio), ratio > 1
			},
		},
		{
			ID:        "C10-fig15",
			Statement: "equi-cost NVM-SSD overtakes DRAM-SSD once the DB outgrows DRAM (§6.7)",
			points:    twoTier(YCSBWH, dramSSD, nvmSSD, 5, 140),
			holds: func(r []result) (string, bool) {
				dramSmall, nvmSmall, dramBig, nvmBig := r[0].Throughput, r[1].Throughput, r[2].Throughput, r[3].Throughput
				detail := fmt.Sprintf("small dram/nvm=%.2f, big nvm/dram=%.2f",
					dramSmall/nvmSmall, nvmBig/dramBig)
				return detail, nvmBig > dramBig && dramSmall > nvmSmall*0.8
			},
		},
	}
}
