package core

import (
	"fmt"

	"github.com/spitfire-db/spitfire/internal/lockcheck"
	"github.com/spitfire-db/spitfire/internal/ssd"
)

// CheckConsistency walks the mapping table and frame metadata and verifies
// the structural invariants that migrations and recovery must preserve:
//
//   - every descriptor with a copy in some tier names its own page;
//   - every frame a descriptor points at is in range and agrees on the page
//     id in its frame metadata;
//   - no frame is referenced by two descriptors;
//   - attached frames are not frozen (pins >= 0);
//   - every attached NVM frame has a valid, checksummed header naming the
//     same page (the durable self-identification recovery depends on);
//   - a lent DRAM frame (frameMeta.lent) is whole, its page has no NVM
//     copy, and a frame that holds no page is not lent — the invariant that
//     keeps anything but the frame's own write-back from rewriting a page
//     while it is lent;
//   - a lent NVM frame's page is one the SSD store holds, its lent page is
//     the store's array for it, and its mask word equals its write-back
//     mask; an NVM frame that owns its page has the word ssd.AllUnits.
//
// The caller must be quiescent (no concurrent fetches, cleaners stopped).
// It returns nil, or an error describing the first few violations found.
func (bm *BufferManager) CheckConsistency() error {
	var violations []string
	add := func(format string, args ...any) {
		if len(violations) < 8 {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
	}

	dramOwner := map[int32]PageID{}
	miniOwner := map[int32]PageID{}
	nvmOwner := map[int32]PageID{}

	var h lockcheck.Holder // no worker's: it takes one mu at a time
	bm.table.Range(func(pid PageID, d *descriptor) bool {
		loc := d.load(&h)
		if (loc.dramFrame != noFrame || loc.dramMini != noFrame || loc.nvmFrame != noFrame) && d.pid != pid {
			add("page %d: descriptor names page %d", pid, d.pid)
		}
		if f := loc.dramFrame; f != noFrame {
			if bm.dram == nil || int(f) >= bm.dram.nFrames || f < 0 {
				add("page %d: DRAM frame %d out of range", pid, f)
			} else {
				if prev, dup := dramOwner[f]; dup {
					add("DRAM frame %d claimed by pages %d and %d", f, prev, pid)
				}
				dramOwner[f] = pid
				if got := bm.dram.meta[f].pid.Load(); got != pid {
					add("page %d: DRAM frame %d tagged with page %d", pid, f, got)
				}
				if bm.dram.meta[f].pins.Load() < 0 {
					add("page %d: attached DRAM frame %d is frozen", pid, f)
				}
				if m := &bm.dram.meta[f]; m.lent.Load() != nil &&
					(m.fg.Load() != nil || loc.nvmFrame != noFrame) {
					add("page %d: lent DRAM frame %d is fine-grained %v, with NVM frame %d",
						pid, f, m.fg.Load() != nil, loc.nvmFrame)
				}
			}
		}
		if f := loc.dramMini; f != noFrame {
			if bm.dram == nil || bm.dram.mini == nil || int(f) >= bm.dram.mini.nFrames || f < 0 {
				add("page %d: mini frame %d out of range", pid, f)
			} else {
				if prev, dup := miniOwner[f]; dup {
					add("mini frame %d claimed by pages %d and %d", f, prev, pid)
				}
				miniOwner[f] = pid
				if got := bm.dram.mini.meta[f].pid.Load(); got != pid {
					add("page %d: mini frame %d tagged with page %d", pid, f, got)
				}
			}
		}
		if f := loc.nvmFrame; f != noFrame {
			if bm.nvm == nil || int(f) >= bm.nvm.nFrames || f < 0 {
				add("page %d: NVM frame %d out of range", pid, f)
			} else {
				if prev, dup := nvmOwner[f]; dup {
					add("NVM frame %d claimed by pages %d and %d", f, prev, pid)
				}
				nvmOwner[f] = pid
				if got := bm.nvm.meta[f].pid.Load(); got != pid {
					add("page %d: NVM frame %d tagged with page %d", pid, f, got)
				}
				hdrPID, valid := bm.nvm.readHeader(f)
				if !valid {
					add("page %d: NVM frame %d has no valid header", pid, f)
				} else if hdrPID != pid {
					add("page %d: NVM frame %d header names page %d", pid, f, hdrPID)
				}
				m, word := &bm.nvm.meta[f], bm.nvm.readWord(f)
				if l := m.lent.Load(); l == nil {
					if word != ssd.AllUnits {
						add("page %d: NVM frame %d owns its page but its mask word is %#x", pid, f, word)
					}
				} else {
					if page, err := bm.disk.Relend(pid); err != nil || &page[0] != &l[0] {
						add("page %d: NVM frame %d is lent a page that is not the store's (%v)", pid, f, err)
					}
					if diff := m.diff.Load(); word != diff {
						add("page %d: lent NVM frame %d has mask word %#x, write-back mask %#x", pid, f, word, diff)
					}
				}
			}
		}
		return true
	})

	// A dead NVM tier's detached frames (detachDeadNVM) keep what they held.
	var pools []*basePool
	if bm.dram != nil {
		pools = append(pools, &bm.dram.basePool)
	}
	if bm.nvm != nil && !bm.nvmDown() {
		pools = append(pools, &bm.nvm.basePool)
	}
	for _, p := range pools {
		for f := range p.meta {
			if m := &p.meta[f]; m.pid.Load() == InvalidPageID && m.lent.Load() != nil {
				add("%v frame %d holds no page but is still lent", p.tier, f)
			}
		}
	}

	if len(violations) > 0 {
		return fmt.Errorf("core: consistency check failed: %d violation(s): %v",
			len(violations), violations)
	}
	return nil
}
