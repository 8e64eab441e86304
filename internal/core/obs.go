package core

import "github.com/spitfire-db/spitfire/internal/obs"

// Obs returns the attached observability layer, or nil.
func (bm *BufferManager) Obs() *obs.Obs { return bm.obs }

// obsRing returns ctx's tracer ring, attaching one on first use. Once the
// registry has been consulted the answer (including a MaxRings refusal,
// recorded as a nil ring) is cached on the Ctx.
func (bm *BufferManager) obsRing(ctx *Ctx) *obs.Ring {
	if !ctx.ringInit {
		ctx.ringInit = true
		if bm.obs != nil {
			ctx.ring = bm.obs.NewRing("worker") // newCleaner names its own
		}
	}
	return ctx.ring
}

// emit records one tracer event on ctx's ring; a no-op when observability is
// off. Events with TS zero are stamped with the worker's current clock.
func (bm *BufferManager) emit(ctx *Ctx, ev obs.Event) {
	if bm.obs == nil {
		return
	}
	if ev.TS == 0 {
		ev.TS = ctx.Clock.Now()
	}
	bm.obsRing(ctx).Emit(ev)
}

// obsTier maps a handle tier to the obs package's tier enum.
func obsTier(t Tier) obs.TierID {
	switch t {
	case TierDRAM:
		return obs.TierDRAM
	case TierMini:
		return obs.TierMini
	case TierNVM:
		return obs.TierNVM
	}
	return obs.TierNone
}
