package obs

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Server is a live exposition endpoint over one Obs:
//
//	/metrics                 Prometheus text format
//	/snapshot.json           counters, gauges, histogram quantiles, and
//	                         interval deltas/rates since the previous snapshot
//	/trace.json              Chrome trace_event export of the tracer rings
//	/events.jsonl            JSONL export of the tracer rings
//	/debug/pprof/...         the standard pprof handlers
type Server struct {
	obs *Obs
	srv *http.Server
	ln  net.Listener

	mu       sync.Mutex
	lastWall time.Time
	lastCtrs map[string]int64
}

// Serve starts the exposition HTTP server on addr (e.g. ":8080" or
// "127.0.0.1:0"). It returns once the listener is bound; requests are
// served on a background goroutine until Close.
func (o *Obs) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{obs: o, ln: ln}
	s.srv = &http.Server{Handler: s.mux()}
	go s.srv.Serve(ln)
	return s, nil
}

// Handler returns the exposition endpoints as an http.Handler, for mounting
// inside another server's mux (spitfire-serve embeds it under its own
// listener instead of opening a second port). The handler keeps its own
// snapshot-delta state, independent of any Serve instance.
func (o *Obs) Handler() http.Handler {
	s := &Server{obs: o}
	return s.mux()
}

// mux builds the endpoint routing table shared by Serve and Handler.
func (s *Server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot.json", s.handleSnapshot)
	mux.HandleFunc("/trace.json", s.handleTrace)
	mux.HandleFunc("/events.jsonl", s.handleEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "spitfire obs endpoints: /metrics /snapshot.json /trace.json /events.jsonl /debug/pprof/\n")
	})
	return mux
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.obs.WritePrometheus(w)
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.obs.WriteChromeTrace(w)
}

// handleEvents serves the merged event snapshot as JSONL. An optional
// ?pid=<page-id> query (repeatable, comma-separable) narrows the export to
// events touching those logical pages — the per-page forensic view used when
// chasing a single page's migration history.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	keep, err := pageFilter(r.URL.Query()["pid"])
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	s.obs.WriteJSONLFiltered(w, keep)
}

// pageFilter parses pid query values ("7", "7,9") into an event predicate.
// No values means no filtering (nil predicate).
func pageFilter(vals []string) (func(Event) bool, error) {
	if len(vals) == 0 {
		return nil, nil
	}
	pids := map[uint64]bool{}
	for _, v := range vals {
		for _, part := range strings.Split(v, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			pid, err := strconv.ParseUint(part, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("obs: bad pid %q: %v", part, err)
			}
			pids[pid] = true
		}
	}
	if len(pids) == 0 {
		return nil, nil
	}
	return func(ev Event) bool { return ev.Page != NoPage && pids[ev.Page] }, nil
}

// handleSnapshot serves a JSON snapshot: absolute counters and gauges from
// the Source, per-histogram quantiles, and — when a previous snapshot
// exists — per-counter interval deltas and rates over the wall-clock
// interval between the two scrapes, plus derived hit rates.
func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	now := time.Now() //vet:allow determinism handleSnapshot scrape-interval rates are wall-clock by definition

	var counters, gauges []Sample
	if src := s.obs.getSource(); src != nil {
		counters = sortedSamples(src.ObsCounters())
		gauges = sortedSamples(src.ObsGauges())
	}

	s.mu.Lock()
	var dt float64
	prev := s.lastCtrs
	if !s.lastWall.IsZero() {
		dt = now.Sub(s.lastWall).Seconds()
	}
	cur := make(map[string]int64, len(counters))
	for _, c := range counters {
		cur[c.Name] = c.Value
	}
	s.lastWall = now
	s.lastCtrs = cur
	s.mu.Unlock()

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\n  \"wall_unix_ns\": %d,\n", now.UnixNano())
	fmt.Fprintf(bw, "  \"interval_seconds\": %.3f,\n", dt)

	writeSampleObj(bw, "counters", counters)
	bw.WriteString(",\n")
	writeSampleObj(bw, "gauges", gauges)
	bw.WriteString(",\n")

	// Interval deltas and per-wall-second rates for every counter that
	// existed in the previous scrape.
	bw.WriteString("  \"deltas\": {")
	first := true
	for _, c := range counters {
		p, ok := prev[c.Name]
		if !ok {
			continue
		}
		if !first {
			bw.WriteString(",")
		}
		first = false
		d := c.Value - p
		rate := 0.0
		if dt > 0 {
			rate = float64(d) / dt
		}
		fmt.Fprintf(bw, "\n    %q: {\"delta\": %d, \"per_second\": %.1f}", c.Name, d, rate)
	}
	bw.WriteString("\n  },\n")

	// Derived hit rates when the source exposes the standard tier counters.
	bw.WriteString("  \"derived\": {")
	writeHitRates(bw, cur, prev)
	bw.WriteString("\n  },\n")

	bw.WriteString("  \"histograms\": {")
	if s.obs != nil {
		for h := Hist(0); h < NumHists; h++ {
			if h > 0 {
				bw.WriteString(",")
			}
			hist := s.obs.hists[h]
			fmt.Fprintf(bw,
				"\n    %q: {\"count\": %d, \"mean_ns\": %.0f, \"p50_ns\": %d, \"p90_ns\": %d, \"p99_ns\": %d, \"max_ns\": %d}",
				h.Name(), hist.Count(), hist.Mean(),
				hist.Percentile(50), hist.Percentile(90), hist.Percentile(99), hist.Max())
		}
		for _, nh := range s.obs.NamedHists() {
			fmt.Fprintf(bw,
				",\n    %q: {\"count\": %d, \"mean_ns\": %.0f, \"p50_ns\": %d, \"p90_ns\": %d, \"p99_ns\": %d, \"max_ns\": %d}",
				nh.Name, nh.H.Count(), nh.H.Mean(),
				nh.H.Percentile(50), nh.H.Percentile(90), nh.H.Percentile(99), nh.H.Max())
		}
	}
	bw.WriteString("\n  },\n")

	// Per-phase histogram windows (warmup vs measure): the observations each
	// experiment phase recorded, rather than the cumulative totals above.
	// max_ns is cumulative as of the phase's end — the lock-free histograms
	// keep no windowed maximum.
	bw.WriteString("  \"phase_histograms\": {")
	if s.obs != nil {
		for pi, ph := range s.obs.PhaseSnapshots() {
			if pi > 0 {
				bw.WriteString(",")
			}
			fmt.Fprintf(bw, "\n    %q: {", ph.Name)
			names := make([]string, 0, len(ph.Hists))
			for name := range ph.Hists {
				names = append(names, name)
			}
			sort.Strings(names)
			first := true
			for _, name := range names {
				hs := ph.Hists[name]
				if hs.Count == 0 {
					continue
				}
				if !first {
					bw.WriteString(",")
				}
				first = false
				fmt.Fprintf(bw,
					"\n      %q: {\"count\": %d, \"mean_ns\": %.0f, \"p50_ns\": %d, \"p90_ns\": %d, \"p99_ns\": %d, \"max_ns\": %d}",
					name, hs.Count, hs.Mean(),
					hs.Percentile(50), hs.Percentile(90), hs.Percentile(99), hs.Max)
			}
			bw.WriteString("\n    }")
		}
	}
	bw.WriteString("\n  }\n}\n")
	bw.Flush()
}

func writeSampleObj(w io.Writer, key string, samples []Sample) {
	fmt.Fprintf(w, "  %q: {", key)
	for i, s := range samples {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n    %q: %d", s.Name, s.Value)
	}
	fmt.Fprint(w, "\n  }")
}

// writeHitRates derives cumulative and interval hit rates from the
// conventional counter names the harness source exposes (hit_dram,
// hit_mini, hit_nvm, miss_ssd). Missing counters simply produce no output.
func writeHitRates(w io.Writer, cur, prev map[string]int64) {
	hitNames := []string{"hit_dram", "hit_mini", "hit_nvm"}
	var hits, total, dHits, dTotal int64
	any := false
	for _, n := range hitNames {
		if v, ok := cur[n]; ok {
			any = true
			hits += v
			total += v
			dHits += v - prev[n]
			dTotal += v - prev[n]
		}
	}
	if v, ok := cur["miss_ssd"]; ok {
		any = true
		total += v
		dTotal += v - prev["miss_ssd"]
	}
	if !any || total == 0 {
		return
	}
	fmt.Fprintf(w, "\n    \"hit_rate\": %.4f", float64(hits)/float64(total))
	if dTotal > 0 {
		fmt.Fprintf(w, ",\n    \"hit_rate_interval\": %.4f", float64(dHits)/float64(dTotal))
	}
}

// StartProgress launches a goroutine that writes a one-line progress report
// to w every interval (default 5s when zero): source gauges plus counter
// rates since the previous tick. The returned stop function halts the
// reporter and waits for it to exit.
func (o *Obs) StartProgress(w io.Writer, interval time.Duration) (stop func()) {
	if o == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = 5 * time.Second
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		prev := map[string]int64{}
		last := time.Now() //vet:allow determinism StartProgress pacing is wall-clock exposition
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			src := o.getSource()
			if src == nil {
				continue
			}
			now := time.Now() //vet:allow determinism StartProgress pacing is wall-clock exposition
			dt := now.Sub(last).Seconds()
			last = now
			counters := src.ObsCounters()
			cur := make(map[string]int64, len(counters))
			for _, c := range counters {
				cur[c.Name] = c.Value
			}
			var parts []string
			for _, g := range sortedSamples(src.ObsGauges()) {
				parts = append(parts, fmt.Sprintf("%s=%d", g.Name, g.Value))
			}
			// Rate for the busiest few counters keeps the line readable.
			type rate struct {
				name string
				per  float64
			}
			var rates []rate
			for n, v := range cur {
				if d := v - prev[n]; d > 0 && dt > 0 {
					rates = append(rates, rate{n, float64(d) / dt})
				}
			}
			sort.Slice(rates, func(i, j int) bool {
				if rates[i].per != rates[j].per {
					return rates[i].per > rates[j].per
				}
				return rates[i].name < rates[j].name
			})
			if len(rates) > 5 {
				rates = rates[:5]
			}
			for _, r := range rates {
				parts = append(parts, fmt.Sprintf("%s/s=%.0f", r.name, r.per))
			}
			prev = cur
			fmt.Fprintf(w, "[obs] %s\n", strings.Join(parts, " "))
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
