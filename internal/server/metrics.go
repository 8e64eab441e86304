package server

import (
	"math"
	"sync/atomic"

	"github.com/spitfire-db/spitfire/internal/obs"
)

// counters are the server's monotonic totals (plus the min-free-frac
// low-water mark). They surface three ways: Stats for tests and
// /stats.json, ObsCounters/ObsGauges for /metrics and /snapshot.json.
type counters struct {
	accepted          atomic.Int64
	completed         atomic.Int64
	rejectedQueueFull atomic.Int64
	rejectedDraining  atomic.Int64
	rejectedReadOnly  atomic.Int64
	shed              atomic.Int64
	queueExpired      atomic.Int64
	deadlineExceeded  atomic.Int64
	conflicts         atomic.Int64
	notFound          atomic.Int64
	errors            atomic.Int64
	txnRetries        atomic.Int64
	shedEnters        atomic.Int64
	degradedTrips     atomic.Int64
	checkpoints       atomic.Int64
	checkpointSkipped atomic.Int64
	minFreeFrac       atomic.Uint64 // math.Float64bits
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
	Checkpoints       int64 `json:"checkpoints"`
	CheckpointSkipped int64 `json:"checkpoint_skipped"`

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
	return Stats{
		Accepted:          s.cnt.accepted.Load(),
		Completed:         s.cnt.completed.Load(),
		RejectedQueueFull: s.cnt.rejectedQueueFull.Load(),
		RejectedDraining:  s.cnt.rejectedDraining.Load(),
		RejectedReadOnly:  s.cnt.rejectedReadOnly.Load(),
		Shed:              s.cnt.shed.Load(),
		QueueExpired:      s.cnt.queueExpired.Load(),
		DeadlineExceeded:  s.cnt.deadlineExceeded.Load(),
		Conflicts:         s.cnt.conflicts.Load(),
		NotFound:          s.cnt.notFound.Load(),
		Errors:            s.cnt.errors.Load(),
		TxnRetries:        s.cnt.txnRetries.Load(),
		ShedEnters:        s.cnt.shedEnters.Load(),
		DegradedTrips:     s.cnt.degradedTrips.Load(),
		Checkpoints:       s.cnt.checkpoints.Load(),
		CheckpointSkipped: s.cnt.checkpointSkipped.Load(),
		Inflight:          inflight,
		Queued:            queued,
		Clients:           clients,
		Draining:          s.draining.Load(),
		ReadOnly:          s.readOnly.Load(),
		Shedding:          s.shedding.Load(),
		MinFreeFracSeen:   math.Float64frombits(s.cnt.minFreeFrac.Load()),
	}
}

// ObsCounters implements obs.Source: the request/admission families plus
// every buffer-manager counter and, when logging is enabled, WAL totals.
func (s *Server) ObsCounters() []obs.Sample {
	st := s.Stats()
	out := []obs.Sample{
		{Name: "req_accepted", Value: st.Accepted},
		{Name: "req_completed", Value: st.Completed},
		{Name: "req_rejected_queue_full", Value: st.RejectedQueueFull},
		{Name: "req_rejected_draining", Value: st.RejectedDraining},
		{Name: "req_rejected_read_only", Value: st.RejectedReadOnly},
		{Name: "req_shed", Value: st.Shed},
		{Name: "req_queue_expired", Value: st.QueueExpired},
		{Name: "req_deadline_exceeded", Value: st.DeadlineExceeded},
		{Name: "req_conflicts", Value: st.Conflicts},
		{Name: "req_not_found", Value: st.NotFound},
		{Name: "req_errors", Value: st.Errors},
		{Name: "txn_retries", Value: st.TxnRetries},
		{Name: "shed_enters", Value: st.ShedEnters},
		{Name: "degraded_trips", Value: st.DegradedTrips},
		{Name: "checkpoints", Value: st.Checkpoints},
	}
	out = append(out, s.bm.ObsCounters()...)
	if w := s.db.WAL(); w != nil {
		appends, flushes, commits := w.Stats()
		out = append(out,
			obs.Sample{Name: "wal_appends", Value: appends},
			obs.Sample{Name: "wal_flushes", Value: flushes},
			obs.Sample{Name: "wal_commits", Value: commits},
		)
	}
	return out
}

// ObsGauges implements obs.Source: instantaneous admission occupancy,
// robustness state (0/1 flags), buffer-pool headroom, and the size of the
// MVTO version store — which only grows while some transaction stays open,
// so a stuck one shows from outside.
func (s *Server) ObsGauges() []obs.Sample {
	st := s.Stats()
	p := s.bm.Pressure()
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
		{Name: "dram_frames", Value: int64(p.DRAMFrames)},
		{Name: "dram_free_frames", Value: int64(p.DRAMFree)},
		{Name: "nvm_frames", Value: int64(p.NVMFrames)},
		{Name: "nvm_free_frames", Value: int64(p.NVMFree)},
		{Name: "min_free_millifrac", Value: int64(p.MinFreeFrac() * 1000)},
		{Name: "nvm_degraded", Value: b2i(p.Degraded)},
		{Name: "mvto_versions_retained", Value: int64(s.db.VersionsRetained())},
	}
	if w := s.db.WAL(); w != nil {
		out = append(out, obs.Sample{Name: "wal_shards", Value: int64(w.Shards())})
	}
	return out
}
