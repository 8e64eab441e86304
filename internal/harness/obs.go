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

// ObsCounters implements obs.Source: the engine's counters plus the
// harness's commits.
func (e *Env) ObsCounters() []obs.Sample {
	return append(e.DB.ObsCounters(), obs.Sample{Name: "commits", Value: e.commits.Load()})
}

// ObsGauges implements obs.Source: the engine's gauges plus the
// simulated-time frontier.
func (e *Env) ObsGauges() []obs.Sample {
	return append(e.DB.ObsGauges(), obs.Sample{Name: "virtual_time_ns", Value: e.vbase.Load()})
}
