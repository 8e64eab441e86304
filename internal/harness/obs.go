package harness

import (
	"sync/atomic"

	"github.com/spitfire-db/spitfire/internal/anneal"
	"github.com/spitfire-db/spitfire/internal/obs"
)

// defaultObs is the process-wide fallback observability instance consulted
// by NewEnv when EnvConfig.Obs is nil. The cmd binaries install it once at
// startup (-obs / -trace flags) so every experiment the registry runs is
// observed without threading a pointer through each experiment function.
var defaultObs atomic.Pointer[obs.Obs]

// SetDefaultObs installs (or, with nil, clears) the process-wide default
// observability instance used by NewEnv when EnvConfig.Obs is unset.
func SetDefaultObs(o *obs.Obs) {
	if o == nil {
		defaultObs.Store(nil)
		return
	}
	defaultObs.Store(o)
}

// DefaultObs returns the instance installed with SetDefaultObs, or nil.
func DefaultObs() *obs.Obs { return defaultObs.Load() }

// PolicyStepHook returns an anneal.Options.OnEpoch callback that traces
// every annealing step as an EvPolicyStep event on a dedicated "tuner"
// ring (single-producer: the tuner runs on the coordinator goroutine
// between epochs). Returns nil — a valid no-op for anneal — when the Env
// has no observability attached.
func (e *Env) PolicyStepHook() func(anneal.EpochStep) {
	o := e.cfg.Obs
	if o == nil {
		return nil
	}
	ring := o.NewRing("tuner")
	return func(st anneal.EpochStep) {
		out := obs.OutSkipped
		if st.Accepted {
			out = obs.OutOK
		}
		ring.Emit(obs.Event{
			TS:      e.vbase.Load(),
			Type:    obs.EvPolicyStep,
			Outcome: out,
			Page:    obs.NoPage,
			Arg:     int64(st.Throughput),
		})
	}
}

// ObsCounters implements obs.Source: every buffer-manager counter plus the
// harness's commit, device-byte and WAL totals.
func (e *Env) ObsCounters() []obs.Sample {
	out := append(e.BM.ObsCounters(), obs.Sample{Name: "commits", Value: e.commits.Load()})
	if e.nvmDev != nil {
		st := e.nvmDev.Stats()
		out = append(out,
			obs.Sample{Name: "nvm_bytes_read", Value: st.BytesRead},
			obs.Sample{Name: "nvm_bytes_written", Value: st.BytesWritten},
		)
	}
	if e.ssdDev != nil {
		st := e.ssdDev.Stats()
		out = append(out,
			obs.Sample{Name: "ssd_bytes_read", Value: st.BytesRead},
			obs.Sample{Name: "ssd_bytes_written", Value: st.BytesWritten},
		)
	}
	if w := e.DB.WAL(); w != nil {
		appends, flushes, commits := w.Stats()
		out = append(out,
			obs.Sample{Name: "wal_appends", Value: appends},
			obs.Sample{Name: "wal_flushes", Value: flushes},
			obs.Sample{Name: "wal_commits", Value: commits},
		)
	}
	return out
}

// ObsGauges implements obs.Source: instantaneous buffer-pool occupancy and
// the simulated-time frontier.
func (e *Env) ObsGauges() []obs.Sample {
	g := e.BM.PoolGauges()
	out := []obs.Sample{
		{Name: "dram_frames", Value: int64(g.DRAMFrames)},
		{Name: "dram_free_frames", Value: int64(g.DRAMFree)},
		{Name: "dram_used_frames", Value: int64(g.DRAMUsed)},
		{Name: "dram_dirty_frames", Value: int64(g.DRAMDirty)},
		{Name: "nvm_frames", Value: int64(g.NVMFrames)},
		{Name: "nvm_free_frames", Value: int64(g.NVMFree)},
		{Name: "nvm_used_frames", Value: int64(g.NVMUsed)},
		{Name: "nvm_dirty_frames", Value: int64(g.NVMDirty)},
		{Name: "virtual_time_ns", Value: e.vbase.Load()},
		{Name: "nvm_degraded", Value: e.BM.Stats().NVMDegraded},
	}
	if g.MiniFrames > 0 {
		out = append(out,
			obs.Sample{Name: "mini_frames", Value: int64(g.MiniFrames)},
			obs.Sample{Name: "mini_free_frames", Value: int64(g.MiniFree)},
			obs.Sample{Name: "mini_used_frames", Value: int64(g.MiniUsed)},
			obs.Sample{Name: "mini_dirty_frames", Value: int64(g.MiniDirty)},
		)
	}
	return out
}
