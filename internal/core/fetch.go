package core

import (
	"errors"
	"fmt"

	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/obs"
	"github.com/spitfire-db/spitfire/internal/policy"
)

// FetchPage returns a pinned handle to page pid, applying the data-migration
// policy of §3:
//
//   - DRAM hit: serve from DRAM.
//   - NVM hit: with probability Dr (reads) or Dw (writes) migrate the page
//     up to DRAM; otherwise serve it directly from NVM, which the CPU can
//     operate on in place.
//   - Miss: with probability Nr fetch SSD→NVM, otherwise SSD→DRAM
//     (bypassing NVM).
//
// The caller must Release the handle, and must not fetch a page while
// already holding a pinned handle to that same page.
//
// With observability attached, the fetch's simulated duration is recorded in
// the per-hit-tier latency histograms and a tracer event is emitted; with
// bm.obs nil the only cost over the raw fetch is this one nil check.
func (bm *BufferManager) FetchPage(ctx *Ctx, pid PageID, intent Intent) (*Handle, error) {
	if err := ctx.interrupted(); err != nil {
		return nil, err
	}
	if bm.obs == nil {
		return bm.fetchPage(ctx, pid, intent)
	}
	start := ctx.Clock.Now()
	h, err := bm.fetchPage(ctx, pid, intent)
	now := ctx.Clock.Now()
	dur := now - start
	ev := obs.Event{TS: now, Dur: dur, Type: obs.EvFetch, Page: pid}
	if err != nil {
		ev.Outcome = obs.OutError
	} else {
		switch h.how {
		case howHitDRAM:
			bm.hFetchDRAM.Observe(dur)
			ev.From, ev.To = obs.TierDRAM, obs.TierDRAM
		case howHitMini:
			bm.hFetchMini.Observe(dur)
			ev.From, ev.To = obs.TierMini, obs.TierMini
		case howHitNVM:
			bm.hFetchNVM.Observe(dur)
			ev.From, ev.To = obs.TierNVM, obs.TierNVM
		case howMigrated:
			bm.hFetchNVM.Observe(dur)
			ev.From, ev.To = obs.TierNVM, obsTier(h.tier)
		case howMissDRAM:
			bm.hFetchMiss.Observe(dur)
			ev.From, ev.To, ev.Outcome = obs.TierSSD, obs.TierDRAM, obs.OutMiss
		case howMissNVM:
			bm.hFetchMiss.Observe(dur)
			ev.From, ev.To, ev.Outcome = obs.TierSSD, obs.TierNVM, obs.OutMiss
		}
	}
	bm.obsRing(ctx).Emit(ev)
	return h, err
}

// fetchPage is the uninstrumented fetch; see FetchPage for the contract.
//
// A hit takes no mutex. It reads the descriptor's slot atomically, pins the
// frame the slot named and validates the frame's page id (pinPage); a frame
// that was frozen, or evicted and reused between the two steps, fails one of
// them and the loop reads the slots again. The shared writes of a hit are the
// pin and, later, the device-horizon CAS of the access — counters go to the
// worker's own block and the CLOCK reference bit is only set when clear.
func (bm *BufferManager) fetchPage(ctx *Ctx, pid PageID, intent Intent) (*Handle, error) {
	d := bm.descriptorFor(pid)
	pol := bm.pol.Load()

	for attempt := 0; ; attempt++ {
		// DRAM full frame.
		if f := d.dramFrame.Load(); f != noFrame {
			if bm.dram.pinPage(f, pid) {
				bm.dram.ref(f)
				bm.count(ctx.Clock, cHitDRAM)
				return &Handle{bm: bm, d: d, tier: TierDRAM, frame: f, how: howHitDRAM}, nil
			}
			backoff(attempt) // frozen mid-eviction, or the slot moved on; look again
			continue
		}
		// DRAM mini frame.
		if f := d.dramMini.Load(); f != noFrame {
			mp := bm.dram.mini
			if mp.pinPage(f, pid) {
				mp.ref(f)
				bm.count(ctx.Clock, cHitMini)
				return &Handle{bm: bm, d: d, tier: TierMini, frame: f, how: howHitMini}, nil
			}
			backoff(attempt)
			continue
		}
		// NVM frame.
		if f := d.nvmFrame.Load(); f != noFrame {
			if bm.nvmDown() {
				// The tier died; this descriptor raced the degradation walk.
				// Detach its dead copy inline and retry as a miss/DRAM hit.
				bm.detachDeadNVM(d)
				continue
			}
			migrate := false
			if bm.dram != nil {
				p := pol.Dr
				if intent == WriteIntent {
					p = pol.Dw
				}
				migrate = ctx.bernoulli(p)
			}
			if !migrate {
				if bm.pinNVMCopy(d, f) {
					bm.nvm.ref(f)
					bm.count(ctx.Clock, cHitNVM)
					if bm.nvm.meta[f].clAdmit.Load() {
						bm.count(ctx.Clock, cHitNVMCleanerAdmitted)
					}
					return &Handle{bm: bm, d: d, tier: TierNVM, frame: f, how: howHitNVM}, nil
				}
				backoff(attempt)
				continue
			}
			if h, err := bm.migrateUp(ctx, d); err != nil {
				return nil, err
			} else if h != nil {
				return h, nil
			}
			continue // state changed under us; retry
		}

		// Miss on both buffers: fetch from SSD.
		h, err := bm.fetchMiss(ctx, d, pol)
		if err != nil {
			return nil, err
		}
		if h != nil {
			bm.count(ctx.Clock, cMissSSD)
			return h, nil
		}
		// Lost an install race; retry.
	}
}

// pinNVMCopy pins NVM frame f, read from d's slot without d.mu, to serve page
// d from it in place. Beyond pinPage it must rule out a DRAM copy: the caller
// read the three slots one at a time, so one may have been published since it
// saw the DRAM slots empty, and it would be the newer copy. migrateUp freezes
// the NVM frame before it publishes a DRAM copy and thaws it after, so once
// the NVM frame is pinned a completed migration is visible and a new one
// waits for the pin. A mini promotion sets the full-frame slot before it
// clears the mini slot; reading them here in the opposite order cannot find
// both empty across one.
func (bm *BufferManager) pinNVMCopy(d *descriptor, f int32) bool {
	if !bm.nvm.pinPage(f, d.pid) {
		return false
	}
	if d.dramMini.Load() != noFrame || d.dramFrame.Load() != noFrame {
		bm.nvm.meta[f].unpin()
		return false
	}
	return true
}

// migrateUp moves page d from NVM to DRAM along path ❻ of Figure 3, keeping
// the NVM copy (which the replacement policy will age out; the coexistence
// of the two copies is what the inclusivity ratio of §3.3 measures).
//
// Per §5.2, it (1) acquires the DRAM and NVM latches, (2) waits for all
// references to the NVM copy to drain so the DRAM copy cannot miss
// concurrent modifications, and (3) copies and publishes. It returns
// (nil, nil) if the descriptor changed underneath and the caller should
// retry.
func (bm *BufferManager) migrateUp(ctx *Ctx, d *descriptor) (*Handle, error) {
	d.lockD()
	d.lockN()
	defer d.unlockN()
	defer d.unlockD()

	loc := d.load()
	if loc.dramFrame != noFrame || loc.dramMini != noFrame || loc.nvmFrame == noFrame {
		return nil, nil
	}
	nf := loc.nvmFrame
	if !bm.nvm.meta[nf].freezeWait(d.pid) {
		return nil, nil // long-held pins; let the caller serve from NVM
	}
	defer bm.nvm.meta[nf].thaw()

	// Whole-page migration copies the page into a full frame. Fine-grained
	// loading instead installs an empty cache-line-grained page (mini if
	// enabled); units fault in on demand, so no bulk copy.
	p, tier, fg := &bm.dram.basePool, TierDRAM, (*fgState)(nil)
	if mp := bm.dram.mini; mp != nil {
		p, tier, fg = &mp.basePool, TierMini, newMiniFG(bm.cfg.LoadingUnit)
	} else if bm.cfg.FineGrained {
		fg = newFullFG(bm.cfg.LoadingUnit)
	}
	f, err := p.alloc(ctx)
	if err != nil {
		if isIOErr(err) {
			return nil, fmt.Errorf("core: migrate page %d up: %w", d.pid, err)
		}
		return nil, nil // DRAM churn; serve from NVM this time
	}
	if fg == nil {
		if err := bm.nvmReadPayload(ctx.Clock, nf, 0, bm.dram.frame(f)); err != nil {
			p.release(f)
			if errors.Is(err, device.ErrPermanent) && !errors.Is(err, device.ErrCrashed) {
				// nvmReadPayload already degraded the tier; the caller's retry
				// loop detaches the dead copy and falls back to the SSD route.
				return nil, nil
			}
			return nil, fmt.Errorf("core: migrate page %d up: %w", d.pid, err)
		}
		bm.dram.charge.ChargeWrite(ctx.Clock, bm.dram.frameOffset(f), PageSize)
	}
	p.attach(d, f, false, fg)
	bm.count(ctx.Clock, cMigNVMToDRAM)
	return &Handle{bm: bm, d: d, tier: tier, frame: f, how: howMigrated}, nil
}

// fetchMiss brings page d in from SSD. With probability Nr it installs the
// page in the NVM buffer (path ❼ of Figure 3); otherwise it bypasses NVM
// and loads straight into DRAM (path ❾, §3.3). It returns (nil, nil) if a
// concurrent fetch installed the page first.
//
// If the NVM route fails with an I/O error and a DRAM tier exists, the fetch
// falls back to the DRAM route: a dying NVM buffer degrades service rather
// than failing reads the SSD can still satisfy.
func (bm *BufferManager) fetchMiss(ctx *Ctx, d *descriptor, pol *policy.Policy) (*Handle, error) {
	toNVM := bm.nvm != nil && !bm.nvmDown() && (bm.dram == nil || ctx.bernoulli(pol.Nr))

	if toNVM {
		h, err := bm.fetchMissNVM(ctx, d)
		if err == nil {
			return h, nil // h == nil means an install race; the caller retries
		}
		if bm.dram == nil || errors.Is(err, device.ErrCrashed) {
			return nil, fmt.Errorf("core: fetch page %d: %w", d.pid, err)
		}
		// NVM route failed; fall through to the DRAM route below.
	}

	d.lockD()
	d.lockS()
	defer d.unlockS()
	defer d.unlockD()
	loc := d.load()
	if loc.dramFrame != noFrame || loc.dramMini != noFrame || loc.nvmFrame != noFrame {
		return nil, nil
	}
	f, err := bm.dram.alloc(ctx)
	if err != nil {
		return nil, err
	}
	if err := bm.diskReadPage(ctx.Clock, d.pid, bm.dram.frame(f)); err != nil {
		bm.dram.release(f)
		return nil, fmt.Errorf("core: fetch page %d: %w", d.pid, err)
	}
	bm.dram.charge.ChargeWrite(ctx.Clock, bm.dram.frameOffset(f), PageSize)
	bm.dram.attach(d, f, false, nil)
	bm.count(ctx.Clock, cSSDToDRAM)
	return &Handle{bm: bm, d: d, tier: TierDRAM, frame: f, how: howMissDRAM}, nil
}

// fetchMissNVM is fetchMiss's SSD→NVM route (path ❼). It returns (nil, nil)
// on an install race and a typed error on I/O failure; the payload is written
// and persisted before the self-identifying header, so a crash mid-install
// leaves an invalid frame, never a valid header over torn data.
func (bm *BufferManager) fetchMissNVM(ctx *Ctx, d *descriptor) (*Handle, error) {
	d.lockN()
	d.lockS()
	defer d.unlockS()
	defer d.unlockN()
	loc := d.load()
	if loc.dramFrame != noFrame || loc.dramMini != noFrame || loc.nvmFrame != noFrame {
		return nil, nil
	}
	nf, err := bm.nvm.alloc(ctx)
	if err != nil {
		return nil, err
	}
	buf := ctx.buf()
	if err := bm.diskReadPage(ctx.Clock, d.pid, buf); err != nil {
		bm.nvm.release(nf)
		return nil, err
	}
	if err := bm.installNVMPage(ctx.Clock, nf, d.pid, buf); err != nil {
		bm.nvm.release(nf)
		return nil, err
	}
	bm.nvm.attach(d, nf, false, nil)
	bm.count(ctx.Clock, cSSDToNVM)
	return &Handle{bm: bm, d: d, tier: TierNVM, frame: nf, how: howMissNVM}, nil
}

// NewPage allocates a fresh, zeroed page and returns it pinned. Placement
// follows Dw (§3.2): with probability Dw the page is buffered in DRAM (the
// group-commit-style route through volatile memory); otherwise it is
// created directly in the NVM buffer, where writes are immediately durable.
func (bm *BufferManager) NewPage(ctx *Ctx) (PageID, *Handle, error) {
	if err := ctx.interrupted(); err != nil {
		return 0, nil, err
	}
	pid := bm.AllocatePageID()
	h, err := bm.materialize(ctx, pid)
	if err != nil {
		return 0, nil, err
	}
	return pid, h, nil
}

// materialize creates a zeroed, dirty, pinned frame for pid, which must not
// be resident anywhere.
func (bm *BufferManager) materialize(ctx *Ctx, pid PageID) (*Handle, error) {
	d := bm.descriptorFor(pid)
	pol := bm.pol.Load()
	toDRAM := bm.dram != nil && (bm.nvm == nil || bm.nvmDown() || ctx.bernoulli(pol.Dw))

	if toDRAM {
		d.lockD()
		defer d.unlockD()
		f, err := bm.dram.alloc(ctx)
		if err != nil {
			return nil, err
		}
		fr := bm.dram.frame(f)
		for i := range fr {
			fr[i] = 0
		}
		bm.dram.charge.ChargeWrite(ctx.Clock, bm.dram.frameOffset(f), PageSize)
		bm.dram.attach(d, f, true, nil)
		return &Handle{bm: bm, d: d, tier: TierDRAM, frame: f}, nil
	}

	d.lockN()
	defer d.unlockN()
	nf, err := bm.nvm.alloc(ctx)
	if err != nil {
		return nil, err
	}
	buf := ctx.buf()
	for i := range buf {
		buf[i] = 0
	}
	if err := bm.installNVMPage(ctx.Clock, nf, pid, buf); err != nil {
		bm.nvm.release(nf)
		return nil, fmt.Errorf("core: materialize page %d: %w", pid, err)
	}
	bm.nvm.attach(d, nf, true, nil)
	return &Handle{bm: bm, d: d, tier: TierNVM, frame: nf}, nil
}

// MaterializePage returns a pinned handle to page pid, creating a zeroed
// frame if the page exists nowhere (neither buffered nor on SSD). Recovery
// uses it to re-create pages whose only record is in the log.
func (bm *BufferManager) MaterializePage(ctx *Ctx, pid PageID) (*Handle, error) {
	d := bm.descriptorFor(pid)
	loc := d.load()
	if loc.dramFrame != noFrame || loc.dramMini != noFrame || loc.nvmFrame != noFrame ||
		bm.disk.Contains(pid) {
		return bm.FetchPage(ctx, pid, WriteIntent)
	}
	if bm.nextPID.Load() <= pid {
		bm.nextPID.Store(pid + 1)
	}
	return bm.materialize(ctx, pid)
}

// SeedPage writes a page directly to SSD, bypassing the buffers. Loaders
// use it to build fixtures; it also bumps the page-id allocator past pid.
func (bm *BufferManager) SeedPage(ctx *Ctx, pid PageID, data []byte) error {
	if err := bm.diskWritePage(ctx.Clock, pid, data); err != nil {
		return err
	}
	for {
		next := bm.nextPID.Load()
		if next > pid {
			return nil
		}
		if bm.nextPID.CompareAndSwap(next, pid+1) {
			return nil
		}
	}
}
