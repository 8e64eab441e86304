// Package engine is the storage engine the paper's workloads run against:
// heap tables of fixed-size tuples on buffer-managed 16 KB pages, a
// B+Tree primary index per table, MVTO transactions, and NVM-aware
// write-ahead logging — the full stack of §5.
//
// The engine deliberately keeps I/O on the measured paths: every tuple read
// and write flows through the buffer manager (charging the simulated
// devices), every transactional update is logged to the NVM log buffer, and
// commits persist there exactly as §5.2 describes.
package engine

import (
	"errors"
	"fmt"
	"sync"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/mvto"
	"github.com/spitfire-db/spitfire/internal/wal"
)

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("engine: key not found")

// ErrConflict re-exports the MVTO conflict error; transactions hitting it
// must Abort and may retry.
var ErrConflict = mvto.ErrConflict

// Options configures a DB.
type Options struct {
	// BM is the buffer manager. Required.
	BM *core.BufferManager
	// WAL enables write-ahead logging when non-nil. Pure buffer-manager
	// benchmarks may run without it.
	WAL *wal.Manager
}

// computeCost is the simulated CPU time (ns) charged per tuple operation on
// top of device costs.
const computeCost = 200

// DB is an open database.
type DB struct {
	bm  *core.BufferManager
	wal *wal.Manager
	tm  *mvto.Manager

	mu     sync.RWMutex
	tables map[uint32]*Table
}

// Open creates a database over the given buffer manager.
func Open(opt Options) (*DB, error) {
	if opt.BM == nil {
		return nil, errors.New("engine: a buffer manager is required")
	}
	return &DB{
		bm:     opt.BM,
		wal:    opt.WAL,
		tm:     mvto.NewManager(),
		tables: make(map[uint32]*Table),
	}, nil
}

// BM returns the underlying buffer manager.
func (db *DB) BM() *core.BufferManager { return db.bm }

// WAL returns the log manager (nil when logging is disabled).
func (db *DB) WAL() *wal.Manager { return db.wal }

// TxnStats reports transaction commit/abort counts.
func (db *DB) TxnStats() (commits, aborts int64) { return db.tm.Stats() }

// VersionsRetained reports how many before-images of committed writes the
// MVTO version store is holding for transactions that may still read them.
func (db *DB) VersionsRetained() int { return db.tm.Retained() }

// chargeCompute accounts the per-operation CPU cost.
func (db *DB) chargeCompute(ctx *core.Ctx) {
	ctx.Clock.Advance(computeCost)
}

// CreateTable registers a table of fixed-size tuples. IDs must be unique.
func (db *DB) CreateTable(id uint32, name string, tupleSize int) (*Table, error) {
	if tupleSize <= 0 || slotSize(tupleSize) > core.PageSize-pageHeaderSize {
		return nil, fmt.Errorf("engine: tuple size %d does not fit a page", tupleSize)
	}
	if int(1)<<ridSlotBits <= slotsPerPage(tupleSize) {
		return nil, fmt.Errorf("engine: %d slots per page exceeds RID slot bits", slotsPerPage(tupleSize))
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[id]; dup {
		return nil, fmt.Errorf("engine: table id %d already exists", id)
	}
	tb := newTable(db, id, name, tupleSize)
	db.tables[id] = tb
	return tb, nil
}

// Table returns the table with the given id, or nil.
func (db *DB) Table(id uint32) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[id]
}

// Txn is a transaction handle. It is owned by one worker goroutine.
type Txn struct {
	db      *DB
	inner   mvto.Txn // embedded by value: a Begin allocates one object
	lastLSN uint64
	began   bool // BEGIN record written

	// idxInserts tracks (table, key) pairs added to indexes by this
	// transaction, removed again on abort.
	idxInserts []idxOp
	// idxDeletes tracks (table, key) pairs to remove at commit.
	idxDeletes []idxOp
	// secUndos undo secondary-index changes on abort; secDeletes apply
	// secondary-index removals at commit.
	secUndos   []func()
	secDeletes []func()
}

type idxOp struct {
	table *Table
	key   uint64
}

// Begin starts a transaction.
func (db *DB) Begin() *Txn {
	t := &Txn{db: db}
	db.tm.Start(&t.inner)
	return t
}

// TS returns the transaction's start timestamp.
func (t *Txn) TS() uint64 { return t.inner.TS }

// log appends a WAL record for this transaction (no-op without a WAL).
func (t *Txn) log(ctx *core.Ctx, rec *wal.Record) error {
	if t.db.wal == nil {
		return nil
	}
	if !t.began {
		t.began = true
		lsn, err := t.db.wal.Append(ctx.Clock, &wal.Record{TxnID: t.inner.TS, Type: wal.RecBegin})
		if err != nil {
			return err
		}
		t.lastLSN = lsn
	}
	rec.TxnID = t.inner.TS
	rec.PrevLSN = t.lastLSN
	lsn, err := t.db.wal.Append(ctx.Clock, rec)
	if err != nil {
		return err
	}
	t.lastLSN = lsn
	return nil
}

// Commit makes the transaction durable: its commit record is persisted in
// the NVM log buffer (§5.2), after which its in-place versions are the
// committed state.
func (t *Txn) Commit(ctx *core.Ctx) error {
	if t.began {
		if err := t.log(ctx, &wal.Record{Type: wal.RecCommit}); err != nil {
			return err
		}
	}
	for _, op := range t.idxDeletes {
		op.table.index.Delete(op.key)
	}
	for _, f := range t.secDeletes {
		f()
	}
	t.db.tm.Commit(&t.inner)
	return nil
}

// Abort rolls the transaction back: every written slot is restored from its
// parked before-image and index insertions are removed.
func (t *Txn) Abort(ctx *core.Ctx) error {
	undos := t.db.tm.AbortStart(&t.inner)
	for i := len(undos) - 1; i >= 0; i-- {
		u := undos[i]
		pid, slot := splitRID(u.RID)
		h, err := t.db.bm.FetchPage(ctx, pid, core.WriteIntent)
		if err != nil {
			return fmt.Errorf("engine: abort restore of rid %d: %w", u.RID, err)
		}
		tb := t.db.tableForRIDLocked(u.RID)
		if tb == nil {
			h.Release()
			return fmt.Errorf("engine: abort: no table for rid %d", u.RID)
		}
		err = h.WriteAt(ctx, slotOffset(tb.tupleSize, slot), u.Before)
		h.Release()
		if err != nil {
			return err
		}
	}
	for _, op := range t.idxInserts {
		op.table.index.Delete(op.key)
	}
	for i := len(t.secUndos) - 1; i >= 0; i-- {
		t.secUndos[i]()
	}
	if t.began {
		if err := t.log(ctx, &wal.Record{Type: wal.RecAbort}); err != nil {
			return err
		}
	}
	t.db.tm.AbortFinish(&t.inner)
	return nil
}

// Checkpoint implements the paper's log-truncation protocol (§5.2): flush
// every dirty DRAM page down to durable media (NVM copies stay in place —
// NVM is persistent), force the log, truncate it, and append a checkpoint
// record. It is the one checkpoint: the server, the experiment harness and
// Recover all call it. It must run quiescently: no transaction open and no
// page pinned (core.BufferManager.FlushDirtyDRAM). The background cleaner
// may run; the flush waits out the pages it holds. Being quiescent, it also
// empties the MVTO version store.
//
// skipped is always zero: the flush no longer skips a busy page. It is kept
// only until bench/ stops reading it.
func (db *DB) Checkpoint(ctx *core.Ctx) (skipped int, err error) {
	db.tm.GC()
	if err := db.bm.FlushDirtyDRAM(ctx); err != nil {
		return 0, err
	}
	if db.wal == nil {
		return 0, nil
	}
	if err := db.wal.Flush(ctx.Clock); err != nil {
		return 0, err
	}
	if err := db.wal.Truncate(ctx.Clock); err != nil {
		return 0, err
	}
	_, err = db.wal.Append(ctx.Clock, &wal.Record{Type: wal.RecCheckpoint})
	return 0, err
}

// tableForRIDLocked finds the table owning a RID via its registered page
// set. RIDs are dense per table, so this consults the owning table map.
func (db *DB) tableForRIDLocked(rid RID) *Table {
	pid, _ := splitRID(rid)
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, tb := range db.tables {
		if tb.ownsPage(pid) {
			return tb
		}
	}
	return nil
}
