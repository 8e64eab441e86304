package main

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of sorted integer samples, interpolated
// inside runs of equal values: with nanosecond timestamps a 300 ns operation
// has a few dozen distinct latencies, and the plain order statistic would
// move in whole-nanosecond steps (or not at all) between runs. Treating the
// k samples that read v as spread evenly over [v, v+1) keeps the estimate
// continuous in the rank.
func quantile(sorted []uint32, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	i := int(rank)
	if i >= n {
		i = n - 1
	}
	v := sorted[i]
	lo, _ := slices.BinarySearch(sorted, v)
	hi, _ := slices.BinarySearch(sorted, v+1)
	return float64(v) + (rank-float64(lo))/float64(hi-lo)
}

// quantileF is the plain linear-interpolated quantile of sorted floats.
func quantileF(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return sorted[n-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// orderStat is the q-quantile of v, which it leaves alone.
func orderStat(v []float64, q float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantileF(s, q)
}

func median(v []float64) float64        { return orderStat(v, 0.5) }
func lowerQuartile(v []float64) float64 { return orderStat(v, 0.25) }

func sorted(v []uint32) []uint32 {
	slices.Sort(v)
	return v
}

// rssMB returns VmHWM (peak) and VmRSS (current) of pid in MiB, from
// /proc/<pid>/status.
func rssMB(pid int) (peak, cur float64, err error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, 0, err
	}
	field := func(name string) (float64, error) {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, name+":"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					kb, err := strconv.ParseFloat(f[0], 64)
					return kb / 1024, err
				}
			}
		}
		return 0, fmt.Errorf("no %s line in /proc/%d/status", name, pid)
	}
	if peak, err = field("VmHWM"); err != nil {
		return 0, 0, err
	}
	cur, err = field("VmRSS")
	return peak, cur, err
}
