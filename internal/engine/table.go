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

// slotHeader reads just the tuple header at rid via the handle.
func (tb *Table) slotHeader(ctx *core.Ctx, h *core.Handle, slot int) (uint64, error) {
	var hdr [tupleHeaderSize]byte
	if err := h.ReadAt(ctx, slotOffset(tb.tupleSize, slot), hdr[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(hdr[:]), nil
}

// slotWTS reads the in-place write timestamp at rid: MVTO's pageWTS
// callback. A failed read reports 0, which sends the caller on to the slot
// access proper, where the same fault surfaces as an error.
func (tb *Table) slotWTS(ctx *core.Ctx, h *core.Handle, slot int) uint64 {
	hdr, _ := tb.slotHeader(ctx, h, slot)
	wts, _, _ := parseTupleHeader(hdr)
	return wts
}

// stage returns the worker's slot staging buffer (core.Ctx.TupleBuf) with
// payload in place. Every after-image is composed there exactly once: the
// write path stamps header and key into it and hands the same bytes to the
// log (which encodes them before returning) and to the page.
func (tb *Table) stage(ctx *core.Ctx, payload []byte) ([]byte, error) {
	if len(payload) != tb.tupleSize {
		return nil, fmt.Errorf("engine: %s: payload is %d bytes, want %d", tb.name, len(payload), tb.tupleSize)
	}
	after := ctx.TupleBuf(slotSize(tb.tupleSize))
	copy(slotPayload(after), payload)
	return after, nil
}

// install logs the change of a slot from before to after and writes after
// to the page pinned by h.
func (tb *Table) install(ctx *core.Ctx, txn *Txn, h *core.Handle, typ wal.RecordType, slot int, before, after []byte) error {
	if err := txn.log(ctx, &wal.Record{
		Type: typ, TableID: tb.id, PageID: h.PageID(), Slot: uint16(slot),
		Before: before, After: after,
	}); err != nil {
		return err
	}
	return h.WriteAt(ctx, slotOffset(tb.tupleSize, slot), after)
}

// Insert adds a tuple under key. It fails if the key already exists.
func (tb *Table) Insert(ctx *core.Ctx, txn *Txn, key uint64, payload []byte) error {
	after, err := tb.stage(ctx, payload)
	if err != nil {
		return err
	}
	return tb.insertSlot(ctx, txn, key, after)
}

// insertSlot is Insert over a staged slot image (see stage): after holds the
// payload, and header and key are stamped here.
func (tb *Table) insertSlot(ctx *core.Ctx, txn *Txn, key uint64, after []byte) error {
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

	err = tb.db.tm.Write(&txn.inner, rid,
		func() uint64 { return tb.slotWTS(ctx, h, slot) },
		func() ([]byte, error) {
			// The before-image is allocated here and never written again:
			// mvto.Write keeps it as the version-store entry.
			before := make([]byte, len(after))
			if err := tb.readSlot(ctx, h, slot, before); err != nil {
				return nil, err
			}
			stampSlot(after, tupleHeader(txn.inner.TS, false), key)
			return before, tb.install(ctx, txn, h, wal.RecInsert, slot, before, after)
		})
	if err != nil {
		return err
	}
	tb.index.Insert(key, rid)
	txn.idxInserts = append(txn.idxInserts, idxOp{table: tb, key: key})
	for _, sec := range tb.secondaries {
		sec.onInsert(txn, key, slotPayload(after))
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
	return tb.readPinned(ctx, txn, h, rid, slot, buf)
}

// readPinned reads the tuple at rid through h, a handle on rid's page, into
// buf. The in-place version is read where it lies — header first, then the
// payload straight into buf — both under the tuple latch, so no writer can
// come between them; an older snapshot is served from the version store.
func (tb *Table) readPinned(ctx *core.Ctx, txn *Txn, h *core.Handle, rid RID, slot int, buf []byte) error {
	var (
		hdr    uint64 // the in-place header pageWTS saw
		hdrErr error
	)
	return tb.db.tm.Read(&txn.inner, rid,
		func() uint64 {
			hdr, hdrErr = tb.slotHeader(ctx, h, slot)
			wts, _, _ := parseTupleHeader(hdr)
			return wts
		},
		func(hist []byte) error {
			if hist != nil {
				hdr, hdrErr = parseSlot(hist).header, nil
			}
			if hdrErr != nil {
				return hdrErr
			}
			if _, occupied, tomb := parseTupleHeader(hdr); !occupied || tomb {
				return fmt.Errorf("%w: %s rid %d", ErrNotFound, tb.name, rid)
			}
			if hist != nil {
				copy(buf, slotPayload(hist))
				return nil
			}
			return h.ReadAt(ctx, slotOffset(tb.tupleSize, slot)+tupleHeaderSize+keySize, buf)
		})
}

// Update overwrites the tuple under key, honoring MVTO write rules.
func (tb *Table) Update(ctx *core.Ctx, txn *Txn, key uint64, payload []byte) error {
	after, err := tb.stage(ctx, payload)
	if err != nil {
		return err
	}
	rid, ok := tb.index.Get(key)
	if !ok {
		return fmt.Errorf("%w: %s key %d", ErrNotFound, tb.name, key)
	}
	return tb.writeRID(ctx, txn, rid, key, after, false, false)
}

// upsertSlot writes a staged slot image (see stage) under key whatever the
// key's state in txn's view: an insert when the index does not map the key,
// otherwise an in-place write that — unlike Update — also overwrites the
// tombstone txn itself left by deleting the key earlier (the index keeps
// mapping a deleted key until the delete commits, so the raw index alone
// cannot tell "exists" from "deleted by me"). The caller serializes
// concurrent upserts of one key: two inserts of a missing key would both
// pass Insert's duplicate check. Reviving a tombstone does not maintain
// secondary indexes; the KV tables that use this have none.
func (tb *Table) upsertSlot(ctx *core.Ctx, txn *Txn, key uint64, after []byte) error {
	rid, ok := tb.index.Get(key)
	if !ok {
		return tb.insertSlot(ctx, txn, key, after)
	}
	return tb.writeRID(ctx, txn, rid, key, after, false, true)
}

// Delete tombstones the tuple under key. The index entry is removed at
// commit so older snapshots can still locate prior versions.
func (tb *Table) Delete(ctx *core.Ctx, txn *Txn, key uint64) error {
	rid, ok := tb.index.Get(key)
	if !ok {
		return fmt.Errorf("%w: %s key %d", ErrNotFound, tb.name, key)
	}
	after := ctx.TupleBuf(slotSize(tb.tupleSize))
	clear(slotPayload(after))
	if err := tb.writeRID(ctx, txn, rid, key, after, true, false); err != nil {
		return err
	}
	txn.idxDeletes = append(txn.idxDeletes, idxOp{table: tb, key: key})
	return nil
}

// writeRID applies an update or delete at rid from a staged slot image (see
// stage). With revive set, the write may also land on the tombstone txn
// itself wrote earlier, bringing the key back and cancelling the index
// removal queued for commit.
func (tb *Table) writeRID(ctx *core.Ctx, txn *Txn, rid RID, key uint64, after []byte, tombstone, revive bool) error {
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

	recType := wal.RecUpdate
	if tombstone {
		recType = wal.RecDelete
	}
	var beforePayload []byte // aliases the before-image, which nothing writes again
	revived := false
	err = tb.db.tm.Write(&txn.inner, rid,
		func() uint64 { return tb.slotWTS(ctx, h, slot) },
		func() ([]byte, error) {
			// The before-image is allocated here and never written again:
			// mvto.Write keeps it as the version-store entry.
			before := make([]byte, len(after))
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
			beforePayload = img.payload
			stampSlot(after, tupleHeader(txn.inner.TS, tombstone), key)
			return before, tb.install(ctx, txn, h, recType, slot, before, after)
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
			sec.onUpdate(txn, key, beforePayload, slotPayload(after))
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
//
// Scan pins one page at a time: consecutive rows on the same page are read
// through one handle, fetched when the scan reaches the page and released
// when it moves on or ends, however it ends. fn runs with that page pinned
// and payload valid only until it returns; it must not fetch the table's
// pages itself (core's one-pin-per-page rule).
func (tb *Table) Scan(ctx *core.Ctx, txn *Txn, from uint64, fn func(key uint64, payload []byte) bool) error {
	buf := make([]byte, tb.tupleSize)
	var (
		h       *core.Handle // the pinned page, nil before the first row
		scanErr error
	)
	tb.index.Scan(from, func(key uint64, rid RID) bool {
		pid, slot := splitRID(rid)
		if scanErr = validateSlot(tb.tupleSize, slot); scanErr != nil {
			return false
		}
		tb.db.chargeCompute(ctx)
		if h == nil || h.PageID() != pid {
			if h != nil {
				h.Release()
			}
			if h, scanErr = tb.db.bm.FetchPage(ctx, pid, core.ReadIntent); scanErr != nil {
				h = nil
				return false
			}
		}
		err := tb.readPinned(ctx, txn, h, rid, slot, buf)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				return true // invisible to this snapshot; keep going
			}
			scanErr = err
			return false
		}
		return fn(key, buf)
	})
	if h != nil {
		h.Release()
	}
	return scanErr
}
