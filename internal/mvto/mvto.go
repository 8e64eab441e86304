// Package mvto implements multi-version timestamp-ordering concurrency
// control (Wu et al., "An Empirical Evaluation of In-Memory Multi-Version
// Concurrency Control"), the protocol Spitfire uses for transactions
// (§5.2 of the paper).
//
// Every transaction receives a start timestamp. The latest version of each
// tuple lives *in place* on its buffer-managed page (whose tuple header
// carries the version's write timestamp); older versions live in a
// DRAM-resident version store, like a rollback segment. This keeps reads
// flowing through the buffer manager — which is what the paper measures —
// while giving readers a consistent snapshot.
//
// Rules (for transaction T with timestamp ts):
//
//   - read(X): the visible version is the newest one with wts ≤ ts. An
//     in-flight *older* writer forces an abort (its outcome would determine
//     what T must see; timestamp ordering does not wait). Reads record ts
//     in X's read timestamp.
//   - write(X): T aborts if X was read by a younger transaction
//     (readTS > ts), overwritten by a younger one (wts > ts), or has a
//     concurrent writer. Otherwise T installs its update in place and parks
//     the before-image in the version store for older readers and rollback.
//
// All tuple-level page access happens inside callbacks invoked under the
// tuple's latch, so visibility decisions and the reads/writes they justify
// are atomic with respect to each other.
//
// The version store reclaims at transaction level (Wu et al.'s taxonomy): a
// parked version dies when the transaction that replaced it is older than
// every active one. Commit retires each of its writes onto a queue; every
// reclaimBatch retired writes, the committing transaction computes
// MinActiveTS once and cuts the chains of the retired writes below it. The
// work is proportional to writes retired, never to tuples stored.
package mvto

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/spitfire-db/spitfire/internal/cht"
)

// ErrConflict aborts a transaction that lost a timestamp-ordering race.
// Callers roll back and retry with a fresh timestamp.
var ErrConflict = errors.New("mvto: timestamp-ordering conflict")

// TxnState tracks a transaction's lifecycle.
type TxnState int32

const (
	TxnActive TxnState = iota
	TxnCommitted
	TxnAborted
)

// Txn is a transaction handle, owned by one worker. A Txn is one object:
// callers that wrap it (the engine) embed it by value and hand it to Start,
// and it links itself into the manager's active list.
type Txn struct {
	TS    uint64 // start timestamp; also the write timestamp of its versions
	state atomic.Int32
	shard uint8 // index of the active-list shard Start linked it into

	writes    []uint64 // RIDs written, in first-write order
	writesBuf [4]uint64
	// written indexes writes once a linear scan of it stops being cheap
	// (writtenScanMax entries); nil until then.
	written map[uint64]struct{}

	// Links in the manager's active list, guarded by the shard's mutex.
	prev, next *Txn
}

// writtenScanMax is the write-set size up to which "did this transaction
// already write rid?" is answered by scanning writes.
const writtenScanMax = 32

// State returns the transaction's current state.
func (t *Txn) State() TxnState { return TxnState(t.state.Load()) }

// Writes returns the RIDs this transaction has written.
func (t *Txn) Writes() []uint64 { return t.writes }

func (t *Txn) hasWritten(rid uint64) bool {
	if t.written != nil {
		_, ok := t.written[rid]
		return ok
	}
	return slices.Contains(t.writes, rid)
}

func (t *Txn) noteWrite(rid uint64) {
	t.writes = append(t.writes, rid)
	switch {
	case t.written != nil:
		t.written[rid] = struct{}{}
	case len(t.writes) > writtenScanMax:
		t.written = make(map[uint64]struct{}, 2*len(t.writes))
		for _, r := range t.writes {
			t.written[r] = struct{}{}
		}
	}
}

// version is an immutable before-image in the version store.
type version struct {
	wts  uint64
	data []byte
	prev *version // next-older version
}

// tupleMeta is the version-store entry for one tuple.
type tupleMeta struct {
	mu      sync.Mutex
	readTS  uint64 // max timestamp that has read this tuple
	writer  *Txn   // in-flight writer, if any
	history *version
}

// activeShards stripes the active-transaction list, so concurrent
// Begin/Commit pairs rarely meet on one mutex.
const activeShards = 64

// reclaimBatch is how many committed writes are retired between two
// reclamation passes: small enough that the version store stays a rounding
// error next to the buffers, large enough that a pass's MinActiveTS (one
// lock per shard) is amortised over a thousand writes.
const reclaimBatch = 1024

// retiredWrite is one committed write waiting for reclamation: every
// version of the tuple with wts < ts is unreachable once ts < MinActiveTS.
type retiredWrite struct {
	tuple *tupleMeta
	ts    uint64
}

// activeShard is one intrusive doubly-linked list of active transactions
// and the queue of writes retired by the transactions that finished on it,
// padded to a cache line.
type activeShard struct {
	mu   sync.Mutex
	head *Txn
	// retired is a ring in commit order: n entries starting at index
	// first, wrapping at len(retired) (a power of two, or zero).
	retired  []retiredWrite
	first, n int
	_        [8]byte
}

// retire queues a committed write. Called with sh.mu held.
func (sh *activeShard) retire(w retiredWrite) {
	if sh.n == len(sh.retired) {
		grown := make([]retiredWrite, max(16, 2*len(sh.retired)))
		for i := 0; i < sh.n; i++ {
			grown[i] = sh.retired[(sh.first+i)&(len(sh.retired)-1)]
		}
		sh.retired, sh.first = grown, 0
	}
	sh.retired[(sh.first+sh.n)&(len(sh.retired)-1)] = w
	sh.n++
}

// Manager issues timestamps and tracks tuple metadata.
type Manager struct {
	nextTS atomic.Uint64
	active [activeShards]activeShard
	meta   *cht.Map[uint64, *tupleMeta]

	aborts  atomic.Int64
	commits atomic.Int64

	// retained counts the before-images of committed writes still parked;
	// reclaimAt is the value of retained at which the next commit runs a
	// reclamation pass. reclaimMu admits one pass at a time.
	retained  atomic.Int64
	reclaimAt atomic.Int64
	reclaimMu sync.Mutex
}

// NewManager creates a transaction manager.
func NewManager() *Manager {
	m := &Manager{meta: cht.New[uint64, *tupleMeta](cht.Uint64Hash)}
	m.nextTS.Store(1)
	m.reclaimAt.Store(reclaimBatch)
	return m
}

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	t := new(Txn)
	m.Start(t)
	return t
}

// Start begins a transaction in t, which must be a zero Txn the caller
// keeps at a fixed address until Commit or AbortFinish.
//
// The timestamp is drawn while holding the mutex of the shard t links into,
// so MinActiveTS — which reads nextTS first and then takes every shard's
// mutex — can never return a value above a transaction that has drawn its
// timestamp but is not on a list yet. The shard is therefore picked before
// the timestamp exists; the counter's current value is only a hint that
// spreads concurrent starters, and t remembers the shard for finish.
func (m *Manager) Start(t *Txn) {
	t.shard = uint8(m.nextTS.Load() % activeShards)
	t.writes = t.writesBuf[:0]
	sh := &m.active[t.shard]
	sh.mu.Lock()
	t.TS = m.nextTS.Add(1) - 1
	if t.next = sh.head; t.next != nil {
		t.next.prev = t
	}
	sh.head = t
	sh.mu.Unlock()
}

// finish takes txn off the active list in its final state and, under the
// same lock, queues the writes it retires (none unless it committed).
// Finishing a transaction twice is a no-op, so a stray Abort after Commit
// cannot unlink a neighbor.
func (m *Manager) finish(txn *Txn, state TxnState, retire []*tupleMeta) {
	if !txn.state.CompareAndSwap(int32(TxnActive), int32(state)) {
		return
	}
	sh := &m.active[txn.shard]
	sh.mu.Lock()
	if txn.prev != nil {
		txn.prev.next = txn.next
	} else {
		sh.head = txn.next
	}
	if txn.next != nil {
		txn.next.prev = txn.prev
	}
	txn.prev, txn.next = nil, nil
	for _, e := range retire {
		sh.retire(retiredWrite{tuple: e, ts: txn.TS})
	}
	sh.mu.Unlock()
}

func (m *Manager) metaFor(rid uint64) *tupleMeta {
	e, _ := m.meta.GetOrInsert(rid, func() *tupleMeta { return &tupleMeta{} })
	return e
}

// Read performs a visibility-checked read of tuple rid. pageWTS must read
// the tuple's in-place write timestamp; serve must perform the read —
// from the page when historyData is nil, from historyData otherwise. Both
// callbacks run under the tuple latch, so the page cannot change between
// the visibility decision and the read.
func (m *Manager) Read(txn *Txn, rid uint64, pageWTS func() uint64, serve func(historyData []byte) error) error {
	e := m.metaFor(rid)
	e.mu.Lock()
	defer e.mu.Unlock()

	if e.writer != nil && e.writer != txn && e.writer.TS < txn.TS {
		m.aborts.Add(1)
		return fmt.Errorf("%w: tuple %d has in-flight older writer", ErrConflict, rid)
	}
	wts := pageWTS()
	if wts <= txn.TS {
		// In-place version visible. (A registered younger writer cannot
		// have applied yet, or wts would exceed txn.TS.)
		if txn.TS > e.readTS {
			e.readTS = txn.TS
		}
		return serve(nil)
	}
	// Page too new: walk history for the newest version with wts <= ts.
	for v := e.history; v != nil; v = v.prev {
		if v.wts <= txn.TS {
			if txn.TS > e.readTS {
				e.readTS = txn.TS
			}
			return serve(v.data)
		}
	}
	m.aborts.Add(1)
	return fmt.Errorf("%w: no version of tuple %d visible at ts %d", ErrConflict, rid, txn.TS)
}

// Write performs a visibility-checked in-place update of tuple rid. apply
// runs under the tuple latch and must: capture the tuple's before-image,
// write the new data (with txn.TS as the new in-place write timestamp),
// and return the before-image. The before-image is parked in the version
// store the first time txn writes rid.
//
// Write owns the slice apply returns: it becomes the version-store entry
// as is, serving older readers and rollback without a copy, so apply must
// return memory nothing else will write to again.
func (m *Manager) Write(txn *Txn, rid uint64, pageWTS func() uint64, apply func() (before []byte, err error)) error {
	e := m.metaFor(rid)
	e.mu.Lock()
	defer e.mu.Unlock()

	if e.writer != nil && e.writer != txn {
		m.aborts.Add(1)
		return fmt.Errorf("%w: tuple %d has concurrent writer", ErrConflict, rid)
	}
	if e.readTS > txn.TS {
		m.aborts.Add(1)
		return fmt.Errorf("%w: tuple %d read at ts %d > %d", ErrConflict, rid, e.readTS, txn.TS)
	}
	wts := pageWTS()
	if wts > txn.TS {
		m.aborts.Add(1)
		return fmt.Errorf("%w: tuple %d written at ts %d > %d", ErrConflict, rid, wts, txn.TS)
	}

	before, err := apply()
	if err != nil {
		return err
	}
	e.writer = txn
	if !txn.hasWritten(rid) {
		txn.noteWrite(rid)
		e.history = &version{wts: wts, data: before, prev: e.history}
	}
	return nil
}

// Commit finalizes txn: its in-place versions become the committed state,
// and the before-images it parked are retired — they die once no active
// transaction is older than txn.
func (m *Manager) Commit(txn *Txn) {
	if txn.State() != TxnActive {
		return
	}
	// Counted before the writer registrations go: from then on a younger
	// writer can commit and reclaim these very versions.
	var retained int64
	if len(txn.writes) > 0 {
		retained = m.retained.Add(int64(len(txn.writes)))
	}
	// The tuples go to finish as an argument, not through a Txn field: a
	// field would move this array to the heap on every commit.
	var few [8]*tupleMeta
	written := few[:0]
	for _, rid := range txn.writes {
		e := m.metaFor(rid)
		e.mu.Lock()
		if e.writer == txn {
			e.writer = nil
		}
		e.mu.Unlock()
		written = append(written, e)
	}
	m.finish(txn, TxnCommitted, written)
	m.commits.Add(1)
	if retained >= m.reclaimAt.Load() && m.reclaimMu.TryLock() {
		m.reclaim()
		m.reclaimMu.Unlock()
	}
}

// Undo describes one rollback action: restore `Before` (whose write
// timestamp was BeforeWTS) as tuple RID's in-place version.
type Undo struct {
	RID       uint64
	BeforeWTS uint64
	Before    []byte
}

// AbortStart returns txn's undo actions, newest write last. The writer
// registrations stay in place, so no other transaction can observe the
// pages while the engine restores them.
func (m *Manager) AbortStart(txn *Txn) []Undo {
	undos := make([]Undo, 0, len(txn.writes))
	for _, rid := range txn.writes {
		e := m.metaFor(rid)
		e.mu.Lock()
		if e.history != nil {
			undos = append(undos, Undo{RID: rid, BeforeWTS: e.history.wts, Before: e.history.data})
		}
		e.mu.Unlock()
	}
	return undos
}

// AbortFinish pops txn's parked before-images (now restored in place by the
// engine) and releases its writer registrations.
func (m *Manager) AbortFinish(txn *Txn) {
	for _, rid := range txn.writes {
		e := m.metaFor(rid)
		e.mu.Lock()
		if e.history != nil {
			e.history = e.history.prev
		}
		if e.writer == txn {
			e.writer = nil
		}
		e.mu.Unlock()
	}
	m.finish(txn, TxnAborted, nil)
	m.aborts.Add(1)
}

// AdvanceTS ensures future timestamps exceed ts. Recovery calls it with the
// largest write timestamp found on any page, so post-recovery transactions
// order correctly after pre-crash ones.
func (m *Manager) AdvanceTS(ts uint64) {
	for {
		cur := m.nextTS.Load()
		if cur > ts {
			return
		}
		if m.nextTS.CompareAndSwap(cur, ts+1) {
			return
		}
	}
}

// MinActiveTS returns the smallest timestamp among active transactions, or
// the next timestamp if none are active.
func (m *Manager) MinActiveTS() uint64 {
	min := m.nextTS.Load()
	for i := range m.active {
		sh := &m.active[i]
		sh.mu.Lock()
		for t := sh.head; t != nil; t = t.next {
			if t.TS < min {
				min = t.TS
			}
		}
		sh.mu.Unlock()
	}
	return min
}

// GC runs a reclamation pass now instead of at the next batch boundary and
// returns the number of versions it dropped. With no transaction active it
// empties the version store.
func (m *Manager) GC() int {
	m.reclaimMu.Lock()
	defer m.reclaimMu.Unlock()
	return m.reclaim()
}

// Retained reports how many before-images of committed writes are parked in
// the version store. (A transaction in flight holds one more per tuple it
// has written, until it commits or aborts.)
func (m *Manager) Retained() int { return int(m.retained.Load()) }

// reclaim drops, for every retired write older than all active
// transactions, every version of its tuple that the write made unreachable.
// Each shard's queue is in commit order, not timestamp order, so a pass
// stops at the first entry it may not reclaim yet; MinActiveTS only grows,
// so what waits behind that entry goes in a later pass. Called with
// reclaimMu held.
func (m *Manager) reclaim() int {
	minTS := m.MinActiveTS()
	dropped := 0
	for i := range m.active {
		sh := &m.active[i]
		sh.mu.Lock()
		for sh.n > 0 {
			w := sh.retired[sh.first]
			if w.ts >= minTS {
				break
			}
			sh.first = (sh.first + 1) & (len(sh.retired) - 1)
			sh.n--
			dropped += w.tuple.dropBelow(w.ts)
		}
		sh.mu.Unlock()
	}
	m.reclaimAt.Store(m.retained.Add(-int64(dropped)) + reclaimBatch)
	return dropped
}

// dropBelow cuts every version with wts < ts off the tuple's chain (they
// sit at its old end: a chain is newest first) and returns how many went.
// A writer in flight on the tuple loses nothing: it registered after the
// retired write committed, so the image it parked has wts >= ts.
func (e *tupleMeta) dropBelow(ts uint64) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	link := &e.history
	for *link != nil && (*link).wts >= ts {
		link = &(*link).prev
	}
	dropped := 0
	for v := *link; v != nil; v = v.prev {
		dropped++
	}
	*link = nil
	return dropped
}

// Stats reports commit and abort counts.
func (m *Manager) Stats() (commits, aborts int64) {
	return m.commits.Load(), m.aborts.Load()
}
