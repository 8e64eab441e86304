package server

import (
	"math"

	"github.com/spitfire-db/spitfire/internal/obs"
)

// counter names one of the server's monotonic totals: its index in
// Server.cnt and its row in the counters table.
type counter uint8

const (
	cAccepted counter = iota
	cCompleted
	cRejectedQueueFull
	cRejectedDraining
	cRejectedReadOnly
	cShed
	cQueueExpired
	cDeadlineExceeded
	cConflicts
	cNotFound
	cErrors
	cTxnRetries
	cShedEnters
	cDegradedTrips
	cCheckpoints
	cCheckpointGiveUps
	cDrainCheckpoints
	nCounters
)

// counterRow is one row of the counter table.
type counterRow struct {
	name string // obs sample name; the /metrics family is spitfire_<name>_total
	snap *int64 // the counter's field in a Stats snapshot
}

// counters is the one table of server counters — row i describes counter
// i — bound to a snapshot o: Stats and ObsCounters are loops over it, so a
// new counter is its id above, its Stats field and a row here.
// DrainCheckpoints is the drain's own result, read from /stats.json after
// the listener has closed, so it has no sample name: checkpoints already
// counts the drain's checkpoint on /metrics.
func counters(o *Stats) [nCounters]counterRow {
	return [...]counterRow{
		cAccepted:          {"req_accepted", &o.Accepted},
		cCompleted:         {"req_completed", &o.Completed},
		cRejectedQueueFull: {"req_rejected_queue_full", &o.RejectedQueueFull},
		cRejectedDraining:  {"req_rejected_draining", &o.RejectedDraining},
		cRejectedReadOnly:  {"req_rejected_read_only", &o.RejectedReadOnly},
		cShed:              {"req_shed", &o.Shed},
		cQueueExpired:      {"req_queue_expired", &o.QueueExpired},
		cDeadlineExceeded:  {"req_deadline_exceeded", &o.DeadlineExceeded},
		cConflicts:         {"req_conflicts", &o.Conflicts},
		cNotFound:          {"req_not_found", &o.NotFound},
		cErrors:            {"req_errors", &o.Errors},
		cTxnRetries:        {"txn_retries", &o.TxnRetries},
		cShedEnters:        {"shed_enters", &o.ShedEnters},
		cDegradedTrips:     {"degraded_trips", &o.DegradedTrips},
		cCheckpoints:       {"checkpoints", &o.Checkpoints},
		cCheckpointGiveUps: {"checkpoint_give_ups", &o.CheckpointGiveUps},
		cDrainCheckpoints:  {"", &o.DrainCheckpoints},
	}
}

// Stats is a point-in-time snapshot of the server's request accounting and
// robustness state, exported over /stats.json.
type Stats struct {
	Accepted          int64 `json:"accepted"`
	Completed         int64 `json:"completed"`
	RejectedQueueFull int64 `json:"rejected_queue_full"`
	RejectedDraining  int64 `json:"rejected_draining"`
	RejectedReadOnly  int64 `json:"rejected_read_only"`
	Shed              int64 `json:"shed"`
	QueueExpired      int64 `json:"queue_expired"`
	DeadlineExceeded  int64 `json:"deadline_exceeded"`
	Conflicts         int64 `json:"conflicts"`
	NotFound          int64 `json:"not_found"`
	Errors            int64 `json:"errors"`
	TxnRetries        int64 `json:"txn_retries"`
	ShedEnters        int64 `json:"shed_enters"`
	DegradedTrips     int64 `json:"degraded_trips"`
	// Checkpoints counts every checkpoint that truncated the log, periodic
	// and drain alike; CheckpointGiveUps those that failed.
	// DrainCheckpoints (0 or 1) is the drain's own result.
	Checkpoints       int64 `json:"checkpoints"`
	CheckpointGiveUps int64 `json:"checkpoint_give_ups"`
	DrainCheckpoints  int64 `json:"drain_checkpoints"`

	Inflight int64 `json:"inflight"`
	Queued   int64 `json:"queued"`
	Clients  int   `json:"clients"`

	Draining bool `json:"draining"`
	ReadOnly bool `json:"read_only"`
	Shedding bool `json:"shedding"`

	// MinFreeFracSeen is the lowest buffer free-list fraction observed by
	// any pressure sample since startup: the overload tests assert it never
	// reached zero (load was shed before the pool ran dry).
	MinFreeFracSeen float64 `json:"min_free_frac_seen"`
}

// Stats snapshots the server's counters and state.
func (s *Server) Stats() Stats {
	inflight, queued, clients := s.adm.gauges()
	st := Stats{
		Inflight:        inflight,
		Queued:          queued,
		Clients:         clients,
		Draining:        s.draining.Load(),
		ReadOnly:        s.readOnly.Load(),
		Shedding:        s.shedding.Load(),
		MinFreeFracSeen: math.Float64frombits(s.minFreeFrac.Load()),
	}
	for i, r := range counters(&st) {
		*r.snap = s.cnt[i].Load()
	}
	return st
}

// ObsCounters implements obs.Source: the server's named counters, then the
// engine's.
func (s *Server) ObsCounters() []obs.Sample {
	st := s.Stats()
	var out []obs.Sample
	for _, r := range counters(&st) {
		if r.name != "" {
			out = append(out, obs.Sample{Name: r.name, Value: *r.snap})
		}
	}
	return append(out, s.db.ObsCounters()...)
}

// ObsGauges implements obs.Source: admission occupancy and the robustness
// flags (0/1), then the engine's gauges.
func (s *Server) ObsGauges() []obs.Sample {
	st := s.Stats()
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	out := []obs.Sample{
		{Name: "inflight", Value: st.Inflight},
		{Name: "queued", Value: st.Queued},
		{Name: "active_clients", Value: int64(st.Clients)},
		{Name: "draining", Value: b2i(st.Draining)},
		{Name: "read_only", Value: b2i(st.ReadOnly)},
		{Name: "shedding", Value: b2i(st.Shedding)},
	}
	return append(out, s.db.ObsGauges()...)
}
