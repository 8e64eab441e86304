package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/spitfire-db/spitfire/internal/metrics"
)

// promName sanitizes a sample name into a Prometheus metric name component:
// lowercase, [a-z0-9_] only.
func promName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}

// writeHistogram renders one latency histogram as a Prometheus summary:
// quantile-labelled gauges plus _sum/_count, which is the natural fit for
// metrics.Histogram's percentile API (bucket bounds are powers of two and
// would make poor le= boundaries). A name ending in _wall holds host time.
func writeHistogram(w io.Writer, name string, h *metrics.Histogram) {
	fq := "spitfire_" + name + "_ns"
	what := "Simulated latency"
	if strings.HasSuffix(name, "_wall") {
		what = "Wall-clock duration"
	}
	fmt.Fprintf(w, "# HELP %s %s of %s in nanoseconds.\n", fq, what, name)
	fmt.Fprintf(w, "# TYPE %s summary\n", fq)
	// Quantile labels are spelled out: 99.9/100 in float64 would render as
	// 0.9990000000000001.
	for _, q := range []struct {
		pct   float64
		label string
	}{{50, "0.5"}, {90, "0.9"}, {99, "0.99"}, {99.9, "0.999"}} {
		fmt.Fprintf(w, "%s{quantile=%q} %d\n", fq, q.label, h.Percentile(q.pct))
	}
	fmt.Fprintf(w, "%s_sum %.0f\n", fq, h.Mean()*float64(h.Count()))
	fmt.Fprintf(w, "%s_count %d\n", fq, h.Count())
}

// WritePrometheus renders the full metric surface in Prometheus text
// exposition format (version 0.0.4): source counters as counters, source
// gauges as gauges, and every hot-path histogram as a summary. Output is
// sorted by name so scrapes are deterministic.
func (o *Obs) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if src := o.getSource(); src != nil {
		for _, s := range sortedSamples(src.ObsCounters()) {
			fq := "spitfire_" + promName(s.Name) + "_total"
			fmt.Fprintf(bw, "# HELP %s Total %s.\n", fq, s.Name)
			fmt.Fprintf(bw, "# TYPE %s counter\n", fq)
			fmt.Fprintf(bw, "%s %d\n", fq, s.Value)
		}
		for _, s := range sortedSamples(src.ObsGauges()) {
			fq := "spitfire_" + promName(s.Name)
			fmt.Fprintf(bw, "# HELP %s Current %s.\n", fq, s.Name)
			fmt.Fprintf(bw, "# TYPE %s gauge\n", fq)
			fmt.Fprintf(bw, "%s %d\n", fq, s.Value)
		}
	}
	if o != nil {
		for h := Hist(0); h < NumHists; h++ {
			writeHistogram(bw, h.Name(), o.hists[h])
		}
		for _, nh := range o.NamedHists() {
			writeHistogram(bw, promName(nh.Name), nh.H)
		}
		alloc, capped := o.RingCount()
		fmt.Fprintf(bw, "# HELP spitfire_obs_rings Allocated tracer rings.\n")
		fmt.Fprintf(bw, "# TYPE spitfire_obs_rings gauge\n")
		fmt.Fprintf(bw, "spitfire_obs_rings %d\n", alloc)
		fmt.Fprintf(bw, "# HELP spitfire_obs_rings_capped_total Workers refused a tracer ring by MaxRings.\n")
		fmt.Fprintf(bw, "# TYPE spitfire_obs_rings_capped_total counter\n")
		fmt.Fprintf(bw, "spitfire_obs_rings_capped_total %d\n", capped)
	}
	return bw.Flush()
}

// ValidatePrometheus is a minimal linter for the text exposition format,
// strict enough to catch the mistakes a hand-rolled writer can make:
// malformed metric names, values that don't parse as numbers, TYPE lines
// for metrics that never appear, HELP/TYPE lines that trail their samples
// (the spec requires metadata to precede its series), duplicate HELP/TYPE
// declarations, non-contiguous (duplicate) metric families, and unbalanced
// label braces. Returns nil when the payload parses.
func ValidatePrometheus(payload string) error {
	typed := map[string]string{} // metric family -> declared type
	helped := map[string]bool{}  // families with a HELP line
	seen := map[string]bool{}    // families with at least one sample
	lastFam := ""                // family of the previous sample line
	for ln, line := range strings.Split(payload, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && (fields[1] == "HELP" || fields[1] == "TYPE") {
				if len(fields) < 3 {
					return fmt.Errorf("line %d: %s without metric name", lineNo, fields[1])
				}
				if !validMetricName(fields[2]) {
					return fmt.Errorf("line %d: invalid metric name %q", lineNo, fields[2])
				}
				// Metadata must precede the series it describes.
				if seen[fields[2]] {
					return fmt.Errorf("line %d: %s for %q after its samples", lineNo, fields[1], fields[2])
				}
				if fields[1] == "TYPE" {
					if len(fields) != 4 {
						return fmt.Errorf("line %d: TYPE needs exactly a name and a type", lineNo)
					}
					switch fields[3] {
					case "counter", "gauge", "summary", "histogram", "untyped":
					default:
						return fmt.Errorf("line %d: unknown metric type %q", lineNo, fields[3])
					}
					if _, dup := typed[fields[2]]; dup {
						return fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, fields[2])
					}
					typed[fields[2]] = fields[3]
				} else {
					if helped[fields[2]] {
						return fmt.Errorf("line %d: duplicate HELP for %q", lineNo, fields[2])
					}
					helped[fields[2]] = true
				}
			}
			continue
		}
		// Sample line: name[{labels}] value [timestamp]
		name := line
		rest := ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if !validMetricName(name) {
			return fmt.Errorf("line %d: invalid sample name %q", lineNo, name)
		}
		if strings.HasPrefix(rest, "{") {
			end := strings.Index(rest, "}")
			if end < 0 {
				return fmt.Errorf("line %d: unbalanced label braces", lineNo)
			}
			labels := rest[1:end]
			if labels != "" {
				for _, pair := range splitLabels(labels) {
					eq := strings.Index(pair, "=")
					if eq <= 0 {
						return fmt.Errorf("line %d: malformed label %q", lineNo, pair)
					}
					val := pair[eq+1:]
					if len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
						return fmt.Errorf("line %d: label value %q not quoted", lineNo, val)
					}
				}
			}
			rest = rest[end+1:]
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return fmt.Errorf("line %d: expected value (and optional timestamp), got %q", lineNo, rest)
		}
		if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
			return fmt.Errorf("line %d: value %q is not a number", lineNo, fields[0])
		}
		if len(fields) == 2 {
			if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
				return fmt.Errorf("line %d: timestamp %q is not an integer", lineNo, fields[1])
			}
		}
		// A family's samples must be contiguous: seeing it again after
		// another family's samples means the family was emitted twice.
		fam := familyOf(name)
		if fam != lastFam && seen[fam] {
			return fmt.Errorf("line %d: duplicate metric family %q (samples not contiguous)", lineNo, fam)
		}
		seen[fam] = true
		lastFam = fam
	}
	for fam := range typed {
		if !seen[fam] {
			return fmt.Errorf("TYPE declared for %q but no samples follow", fam)
		}
	}
	return nil
}

// familyOf strips summary/histogram suffixes so samples map back to their
// TYPE declaration.
func familyOf(name string) string {
	for _, suf := range []string{"_sum", "_count", "_bucket"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
