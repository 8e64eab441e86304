package engine

import (
	"fmt"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/vclock"
	"github.com/spitfire-db/spitfire/internal/wal"
	"github.com/spitfire-db/spitfire/internal/zipf"
)

// TableDef describes a table for recovery (schemas are code, not data, so
// the caller re-declares them).
type TableDef struct {
	ID        uint32
	Name      string
	TupleSize int
}

// RecoverOptions configures database recovery after a crash.
type RecoverOptions struct {
	// BM is a buffer manager already rebuilt over the surviving NVM arena
	// (core.Recover).
	BM *core.BufferManager
	// WAL carries the surviving NVM log buffer and the SSD log file.
	WAL wal.Options
	// Schema lists the tables to re-register.
	Schema []TableDef
	// Prepare, if non-nil, runs after the schema is created and before the
	// log replay and rebuild scan — the place to re-attach secondary
	// indexes so the scan repopulates them.
	Prepare func(db *DB) error
	// ComputeCost as in Options.
	ComputeCost int64
}

// applier adapts the engine to wal.Applier for the redo/undo passes.
// Records are full slot images, so redo is a blind physical replay in LSN
// order and undo restores before-images directly.
type applier struct {
	db  *DB
	ctx *core.Ctx
}

func (a *applier) handleFor(c *vclock.Clock, rec *wal.Record) (*core.Handle, *Table, error) {
	tb := a.db.Table(rec.TableID)
	if tb == nil {
		return nil, nil, fmt.Errorf("engine: recovery: unknown table %d", rec.TableID)
	}
	h, err := a.db.bm.MaterializePage(a.ctx, rec.PageID)
	if err != nil {
		return nil, nil, err
	}
	// Fresh pages need their header re-established.
	var hdr [pageHeaderSize]byte
	if err := h.ReadAt(a.ctx, 0, hdr[:]); err != nil {
		h.Release()
		return nil, nil, err
	}
	if _, _, ok := decodePageHeader(hdr[:]); !ok {
		encodePageHeader(hdr[:], tb.id, tb.tupleSize)
		if err := h.WriteAt(a.ctx, 0, hdr[:]); err != nil {
			h.Release()
			return nil, nil, err
		}
	}
	return h, tb, nil
}

// ApplyRedo implements wal.Applier.
func (a *applier) ApplyRedo(c *vclock.Clock, rec *wal.Record) error {
	h, tb, err := a.handleFor(c, rec)
	if err != nil {
		return err
	}
	defer h.Release()
	return h.WriteAt(a.ctx, slotOffset(tb.tupleSize, int(rec.Slot)), rec.After)
}

// ApplyUndo implements wal.Applier.
func (a *applier) ApplyUndo(c *vclock.Clock, rec *wal.Record) error {
	h, tb, err := a.handleFor(c, rec)
	if err != nil {
		return err
	}
	defer h.Release()
	return h.WriteAt(a.ctx, slotOffset(tb.tupleSize, int(rec.Slot)), rec.Before)
}

// Recover rebuilds a database after a crash, per §5.2 of the paper:
//
//  1. The buffer manager has already reconstructed the NVM buffer's mapping
//     table (core.Recover) — the caller passes it in.
//  2. The log is completed (NVM log-buffer tail appended to the SSD file)
//     and analysis/redo/undo run (wal.Recover).
//  3. Page directories and in-memory indexes are rebuilt by scanning every
//     page (NVM-resident pages may be newer than their SSD counterparts,
//     which is exactly why step 1 must precede this scan).
//  4. A closing checkpoint flushes the undo results out of volatile DRAM.
func Recover(ctx *core.Ctx, opt RecoverOptions) (*DB, *wal.RecoveredLog, error) {
	db, err := Open(Options{BM: opt.BM, ComputeCost: opt.ComputeCost})
	if err != nil {
		return nil, nil, err
	}
	for _, def := range opt.Schema {
		if _, err := db.CreateTable(def.ID, def.Name, def.TupleSize); err != nil {
			return nil, nil, err
		}
	}
	if opt.Prepare != nil {
		if err := opt.Prepare(db); err != nil {
			return nil, nil, err
		}
	}

	walMgr, rl, err := wal.Recover(ctx.Clock, opt.WAL, &applier{db: db, ctx: ctx})
	if err != nil {
		return nil, nil, err
	}
	db.wal = walMgr

	if err := db.rebuildDirectories(ctx); err != nil {
		return nil, nil, err
	}
	if _, err := db.bm.FlushDirtyDRAM(ctx); err != nil {
		return nil, nil, err
	}
	return db, rl, nil
}

// rebuildDirectories scans every known page, re-registers it with its
// table, and rebuilds the primary indexes from live tuples.
func (db *DB) rebuildDirectories(ctx *core.Ctx) error {
	maxPID := db.bm.NextPageID()
	if diskMax, ok := db.bm.Disk().MaxPageID(); ok && diskMax+1 > maxPID {
		maxPID = diskMax + 1
		db.bm.SetNextPageID(maxPID)
	}
	hdr := make([]byte, pageHeaderSize)
	for pid := core.PageID(0); pid < maxPID; pid++ {
		h, err := db.bm.FetchPage(ctx, pid, core.ReadIntent)
		if err != nil {
			continue // hole in the page-id space
		}
		if err := h.ReadAt(ctx, 0, hdr); err != nil {
			h.Release()
			return err
		}
		tableID, tupleSize, ok := decodePageHeader(hdr)
		if !ok {
			h.Release()
			continue // not an engine page (e.g. never initialized)
		}
		tb := db.Table(tableID)
		if tb == nil || tb.tupleSize != tupleSize {
			h.Release()
			return fmt.Errorf("engine: recovery: page %d references unknown table %d (tuple size %d)", pid, tableID, tupleSize)
		}
		tb.registerPage(pid)
		ss := slotSize(tb.tupleSize)
		raw := make([]byte, ss)
		for slot := 0; slot < tb.slots; slot++ {
			if err := h.ReadAt(ctx, slotOffset(tb.tupleSize, slot), raw); err != nil {
				h.Release()
				return err
			}
			img := parseSlot(raw)
			wts, occupied, tomb := parseTupleHeader(img.header)
			if occupied {
				// Every surviving version is committed state; future
				// transactions must be ordered after it.
				db.tm.AdvanceTS(wts)
			}
			if occupied && !tomb {
				tb.index.Insert(img.key, makeRID(pid, slot))
				for _, sec := range tb.secondaries {
					sec.onLoad(img.key, img.payload)
				}
			}
		}
		h.Release()
	}
	return nil
}

// NewRecoveryCtx builds a worker context suitable for single-threaded
// recovery work.
func NewRecoveryCtx() *core.Ctx {
	return &core.Ctx{Clock: vclock.New(), RNG: zipf.NewRand(0xEC0)}
}
