package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/spitfire-db/spitfire/internal/btree"
	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/wal"
)

// Table is a heap of fixed-size tuples with a B+Tree primary index.
type Table struct {
	db        *DB
	id        uint32
	name      string
	tupleSize int
	slots     int // slots per page

	index *btree.Tree[uint64]

	allocMu  chan struct{} // binary semaphore guarding the allocation cursor
	curPage  core.PageID
	curSlot  int
	havePage bool
	pages    map[core.PageID]bool
	pageList []core.PageID

	secondaries []secondary
}

func newTable(db *DB, id uint32, name string, tupleSize int) *Table {
	tb := &Table{
		db:        db,
		id:        id,
		name:      name,
		tupleSize: tupleSize,
		slots:     slotsPerPage(tupleSize),
		index:     btree.New[uint64](),
		allocMu:   make(chan struct{}, 1),
		pages:     make(map[core.PageID]bool),
	}
	tb.allocMu <- struct{}{}
	return tb
}

// ID returns the table id.
func (tb *Table) ID() uint32 { return tb.id }

// Name returns the table name.
func (tb *Table) Name() string { return tb.name }

// TupleSize returns the tuple payload size.
func (tb *Table) TupleSize() int { return tb.tupleSize }

// Index exposes the primary index (key → RID) for range scans.
func (tb *Table) Index() *btree.Tree[uint64] { return tb.index }

// Pages returns a snapshot of the table's page list.
func (tb *Table) Pages() []core.PageID {
	<-tb.allocMu
	out := append([]core.PageID(nil), tb.pageList...)
	tb.allocMu <- struct{}{}
	return out
}

func (tb *Table) ownsPage(pid core.PageID) bool {
	<-tb.allocMu
	ok := tb.pages[pid]
	tb.allocMu <- struct{}{}
	return ok
}

// registerPage records a page as belonging to this table (loader/recovery).
func (tb *Table) registerPage(pid core.PageID) {
	<-tb.allocMu
	if !tb.pages[pid] {
		tb.pages[pid] = true
		tb.pageList = append(tb.pageList, pid)
	}
	tb.allocMu <- struct{}{}
}

// allocRID reserves a fresh slot, creating (and header-initializing) a new
// page through the buffer manager when the current one fills up.
func (tb *Table) allocRID(ctx *core.Ctx) (RID, error) {
	<-tb.allocMu
	defer func() { tb.allocMu <- struct{}{} }()
	if !tb.havePage || tb.curSlot >= tb.slots {
		pid, h, err := tb.db.bm.NewPage(ctx)
		if err != nil {
			return 0, err
		}
		var hdr [pageHeaderSize]byte
		encodePageHeader(hdr[:], tb.id, tb.tupleSize)
		if err := h.WriteAt(ctx, 0, hdr[:]); err != nil {
			h.Release()
			return 0, err
		}
		h.Release()
		tb.curPage, tb.curSlot, tb.havePage = pid, 0, true
		tb.pages[pid] = true
		tb.pageList = append(tb.pageList, pid)
	}
	rid := makeRID(tb.curPage, tb.curSlot)
	tb.curSlot++
	return rid, nil
}

// readSlot copies the full slot image at rid via the handle.
func (tb *Table) readSlot(ctx *core.Ctx, h *core.Handle, slot int, buf []byte) error {
	return h.ReadAt(ctx, slotOffset(tb.tupleSize, slot), buf)
}

// slotWTS reads just the tuple header at rid via the handle.
func (tb *Table) slotWTS(ctx *core.Ctx, h *core.Handle, slot int) (uint64, error) {
	var hdr [tupleHeaderSize]byte
	if err := h.ReadAt(ctx, slotOffset(tb.tupleSize, slot), hdr[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(hdr[:]), nil
}

// Insert adds a tuple under key. It fails if the key already exists.
func (tb *Table) Insert(ctx *core.Ctx, txn *Txn, key uint64, payload []byte) error {
	if len(payload) != tb.tupleSize {
		return fmt.Errorf("engine: %s: payload is %d bytes, want %d", tb.name, len(payload), tb.tupleSize)
	}
	if _, exists := tb.index.Get(key); exists {
		return fmt.Errorf("engine: %s: duplicate key %d", tb.name, key)
	}
	tb.db.chargeCompute(ctx)
	rid, err := tb.allocRID(ctx)
	if err != nil {
		return err
	}
	pid, slot := splitRID(rid)
	h, err := tb.db.bm.FetchPage(ctx, pid, core.WriteIntent)
	if err != nil {
		return err
	}
	defer h.Release()

	ss := slotSize(tb.tupleSize)
	err = tb.db.tm.Write(txn.inner, rid,
		func() uint64 {
			wts, _ := tb.slotWTS(ctx, h, slot)
			w, _, _ := parseTupleHeader(wts)
			return w
		},
		func() ([]byte, error) {
			before := make([]byte, ss)
			if err := tb.readSlot(ctx, h, slot, before); err != nil {
				return nil, err
			}
			after := make([]byte, ss)
			buildSlot(after, tupleHeader(txn.inner.TS, false), key, payload)
			if err := txn.log(ctx, &wal.Record{
				Type: wal.RecInsert, TableID: tb.id, PageID: pid, Slot: uint16(slot),
				Before: before, After: after,
			}); err != nil {
				return nil, err
			}
			if err := h.WriteAt(ctx, slotOffset(tb.tupleSize, slot), after); err != nil {
				return nil, err
			}
			return before, nil
		})
	if err != nil {
		return err
	}
	tb.index.Insert(key, rid)
	txn.idxInserts = append(txn.idxInserts, idxOp{table: tb, key: key})
	for _, sec := range tb.secondaries {
		sec.onInsert(txn, key, payload)
	}
	return nil
}

// Read copies the tuple under key into buf (tupleSize bytes), honoring MVTO
// visibility.
func (tb *Table) Read(ctx *core.Ctx, txn *Txn, key uint64, buf []byte) error {
	rid, ok := tb.index.Get(key)
	if !ok {
		return fmt.Errorf("%w: %s key %d", ErrNotFound, tb.name, key)
	}
	return tb.ReadRID(ctx, txn, rid, buf)
}

// ReadRID reads the tuple at rid.
func (tb *Table) ReadRID(ctx *core.Ctx, txn *Txn, rid RID, buf []byte) error {
	if len(buf) != tb.tupleSize {
		return fmt.Errorf("engine: %s: read buffer is %d bytes, want %d", tb.name, len(buf), tb.tupleSize)
	}
	pid, slot := splitRID(rid)
	if err := validateSlot(tb.tupleSize, slot); err != nil {
		return err
	}
	tb.db.chargeCompute(ctx)
	h, err := tb.db.bm.FetchPage(ctx, pid, core.ReadIntent)
	if err != nil {
		return err
	}
	defer h.Release()

	ss := slotSize(tb.tupleSize)
	return tb.db.tm.Read(txn.inner, rid,
		func() uint64 {
			hdr, _ := tb.slotWTS(ctx, h, slot)
			w, _, _ := parseTupleHeader(hdr)
			return w
		},
		func(hist []byte) error {
			var img slotImage
			if hist != nil {
				img = parseSlot(hist)
			} else {
				raw := make([]byte, ss)
				if err := tb.readSlot(ctx, h, slot, raw); err != nil {
					return err
				}
				img = parseSlot(raw)
			}
			_, occupied, tomb := parseTupleHeader(img.header)
			if !occupied || tomb {
				return fmt.Errorf("%w: %s rid %d", ErrNotFound, tb.name, rid)
			}
			copy(buf, img.payload)
			return nil
		})
}

// Update overwrites the tuple under key, honoring MVTO write rules.
func (tb *Table) Update(ctx *core.Ctx, txn *Txn, key uint64, payload []byte) error {
	if len(payload) != tb.tupleSize {
		return fmt.Errorf("engine: %s: payload is %d bytes, want %d", tb.name, len(payload), tb.tupleSize)
	}
	rid, ok := tb.index.Get(key)
	if !ok {
		return fmt.Errorf("%w: %s key %d", ErrNotFound, tb.name, key)
	}
	return tb.writeRID(ctx, txn, rid, key, payload, false, false)
}

// upsert writes payload under key whatever the key's state in txn's view: an
// insert when the index does not map the key, otherwise an in-place write
// that — unlike Update — also overwrites the tombstone txn itself left by
// deleting the key earlier (the index keeps mapping a deleted key until the
// delete commits, so the raw index alone cannot tell "exists" from "deleted
// by me"). The caller serializes concurrent upserts of one key: two inserts
// of a missing key would both pass Insert's duplicate check. Reviving a
// tombstone does not maintain secondary indexes; the KV tables that use this
// have none.
func (tb *Table) upsert(ctx *core.Ctx, txn *Txn, key uint64, payload []byte) error {
	if len(payload) != tb.tupleSize {
		return fmt.Errorf("engine: %s: payload is %d bytes, want %d", tb.name, len(payload), tb.tupleSize)
	}
	rid, ok := tb.index.Get(key)
	if !ok {
		return tb.Insert(ctx, txn, key, payload)
	}
	return tb.writeRID(ctx, txn, rid, key, payload, false, true)
}

// Delete tombstones the tuple under key. The index entry is removed at
// commit so older snapshots can still locate prior versions.
func (tb *Table) Delete(ctx *core.Ctx, txn *Txn, key uint64) error {
	rid, ok := tb.index.Get(key)
	if !ok {
		return fmt.Errorf("%w: %s key %d", ErrNotFound, tb.name, key)
	}
	if err := tb.writeRID(ctx, txn, rid, key, make([]byte, tb.tupleSize), true, false); err != nil {
		return err
	}
	txn.idxDeletes = append(txn.idxDeletes, idxOp{table: tb, key: key})
	return nil
}

// writeRID applies an update or delete at rid. With revive set, the write
// may also land on the tombstone txn itself wrote earlier, bringing the key
// back and cancelling the index removal queued for commit.
func (tb *Table) writeRID(ctx *core.Ctx, txn *Txn, rid RID, key uint64, payload []byte, tombstone, revive bool) error {
	pid, slot := splitRID(rid)
	if err := validateSlot(tb.tupleSize, slot); err != nil {
		return err
	}
	tb.db.chargeCompute(ctx)
	h, err := tb.db.bm.FetchPage(ctx, pid, core.WriteIntent)
	if err != nil {
		return err
	}
	defer h.Release()

	ss := slotSize(tb.tupleSize)
	recType := wal.RecUpdate
	if tombstone {
		recType = wal.RecDelete
	}
	var beforePayload []byte
	if len(tb.secondaries) > 0 {
		beforePayload = make([]byte, tb.tupleSize)
	}
	revived := false
	err = tb.db.tm.Write(txn.inner, rid,
		func() uint64 {
			hdr, _ := tb.slotWTS(ctx, h, slot)
			w, _, _ := parseTupleHeader(hdr)
			return w
		},
		func() ([]byte, error) {
			before := make([]byte, ss)
			if err := tb.readSlot(ctx, h, slot, before); err != nil {
				return nil, err
			}
			img := parseSlot(before)
			if wts, occupied, tomb := parseTupleHeader(img.header); !occupied || tomb {
				if !revive {
					return nil, fmt.Errorf("%w: %s rid %d", ErrNotFound, tb.name, rid)
				}
				if !tomb || wts != txn.inner.TS {
					// Someone else's delete: its commit drops the index entry
					// this write located the slot through, so a retry inserts.
					return nil, fmt.Errorf("%w: %s key %d deleted concurrently", ErrConflict, tb.name, key)
				}
				revived = true
			}
			if beforePayload != nil {
				copy(beforePayload, img.payload)
			}
			after := make([]byte, ss)
			buildSlot(after, tupleHeader(txn.inner.TS, tombstone), key, payload)
			if err := txn.log(ctx, &wal.Record{
				Type: recType, TableID: tb.id, PageID: pid, Slot: uint16(slot),
				Before: before, After: after,
			}); err != nil {
				return nil, err
			}
			if err := h.WriteAt(ctx, slotOffset(tb.tupleSize, slot), after); err != nil {
				return nil, err
			}
			return before, nil
		})
	if err != nil {
		return err
	}
	if revived {
		txn.idxDeletes = slices.DeleteFunc(txn.idxDeletes, func(op idxOp) bool {
			return op.table == tb && op.key == key
		})
		return nil
	}
	for _, sec := range tb.secondaries {
		if tombstone {
			sec.onDelete(txn, key, beforePayload)
		} else {
			sec.onUpdate(txn, key, beforePayload, payload)
		}
	}
	return nil
}

// ScanKeys visits index entries with key >= from in ascending order until
// fn returns false. Tuples are read separately via ReadRID under the
// caller's transaction.
func (tb *Table) ScanKeys(from uint64, fn func(key uint64, rid RID) bool) {
	tb.index.Scan(from, fn)
}

// Scan visits live tuples with key >= from in primary-key order under the
// transaction's snapshot, until fn returns false. Tuples invisible to the
// snapshot (deleted, or inserted by concurrent transactions) are skipped;
// a visibility conflict aborts the scan with ErrConflict.
func (tb *Table) Scan(ctx *core.Ctx, txn *Txn, from uint64, fn func(key uint64, payload []byte) bool) error {
	buf := make([]byte, tb.tupleSize)
	var scanErr error
	tb.index.Scan(from, func(key uint64, rid RID) bool {
		err := tb.ReadRID(ctx, txn, rid, buf)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				return true // invisible to this snapshot; keep going
			}
			scanErr = err
			return false
		}
		return fn(key, buf)
	})
	return scanErr
}
