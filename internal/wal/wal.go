// Package wal implements Spitfire's NVM-aware write-ahead logging and
// recovery protocol (§5.2 of the paper).
//
// Log records are first persisted in a *shared NVM log buffer*, exploiting
// NVM's persistence and latency: once a transaction's commit record is
// persisted there (clwb+sfence), the transaction is durable — no synchronous
// SSD write sits on the commit path. When the buffer fills past a threshold
// its contents are appended to an on-SSD log file and the buffer is reset.
//
// The NVM buffer is split into Options.Shards independent append regions
// with worker-affine assignment, so concurrent appenders contend only on
// their own shard's mutex; LSNs come from one atomic counter and stay
// globally unique and monotone. A combining flusher (group commit) drains
// every shard under a single flushMu, coalescing the shard contents into one
// ordered SSD append and publishing an LSN watermark: a committer whose LSN
// is already below the watermark skips the flush entirely. With Shards=1
// (the default) the layout and behavior match the original single-buffer
// manager.
//
// A record carries: transaction and page identifiers, the record type, the
// LSN of the transaction's previous record, and before/after images —
// exactly the fields §5.2 lists.
//
// Recovery completes the log (each persistent NVM shard's tail is appended
// to the SSD log file and merged by LSN) and then runs the traditional
// analysis / redo / undo passes. Redo re-applies after-images to pages whose
// page LSN is older; undo restores before-images of loser transactions in
// reverse LSN order.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/lockcheck"
	"github.com/spitfire-db/spitfire/internal/metrics"
	"github.com/spitfire-db/spitfire/internal/obs"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// RecordType enumerates log record kinds.
type RecordType uint8

const (
	RecBegin RecordType = iota + 1
	RecUpdate
	RecInsert
	RecDelete
	RecCommit
	RecAbort
	RecCheckpoint
)

// String names the record type.
func (t RecordType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecUpdate:
		return "UPDATE"
	case RecInsert:
		return "INSERT"
	case RecDelete:
		return "DELETE"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecCheckpoint:
		return "CHECKPOINT"
	}
	return fmt.Sprintf("RecordType(%d)", uint8(t))
}

// Record is one log record.
type Record struct {
	LSN     uint64
	TxnID   uint64
	PrevLSN uint64
	Type    RecordType
	TableID uint32
	PageID  uint64
	Slot    uint16
	Before  []byte // before image (undo)
	After   []byte // after image (redo)
}

const recHeaderSize = 8 + 8 + 8 + 1 + 4 + 8 + 2 + 4 + 4 // body header fields

func (r *Record) bodyLen() int { return recHeaderSize + len(r.Before) + len(r.After) }

// encode appends the framed record (length + checksum + body) to dst. It
// encodes in place with no intermediate buffer, so appending into a slice
// with enough capacity performs zero allocations (the WAL hot path reuses a
// per-shard scratch buffer).
func (r *Record) encode(dst []byte) []byte {
	base := len(dst)
	le := binary.LittleEndian
	var frame [8]byte
	dst = append(dst, frame[:]...) // length + checksum, patched below
	dst = le.AppendUint64(dst, r.LSN)
	dst = le.AppendUint64(dst, r.TxnID)
	dst = le.AppendUint64(dst, r.PrevLSN)
	dst = append(dst, byte(r.Type))
	dst = le.AppendUint32(dst, r.TableID)
	dst = le.AppendUint64(dst, r.PageID)
	dst = le.AppendUint16(dst, r.Slot)
	dst = le.AppendUint32(dst, uint32(len(r.Before)))
	dst = le.AppendUint32(dst, uint32(len(r.After)))
	dst = append(dst, r.Before...)
	dst = append(dst, r.After...)
	body := dst[base+8:]
	le.PutUint32(dst[base:], uint32(len(body)))
	le.PutUint32(dst[base+4:], checksum(body))
	return dst
}

// decodeStatus classifies why a frame failed to decode, so recovery can
// distinguish a clean end of log from damage it skipped past.
type decodeStatus int

const (
	decodeOK      decodeStatus = iota
	decodeShort                // not enough bytes: clean end of log / zeroed tail
	decodeCorrupt              // bytes present but damaged (checksum or length lies)
)

// decodeOne parses one framed record from b, returning the record, the bytes
// consumed, and a status: decodeShort when b ends before a whole frame could
// exist (the normal end of a scan), decodeCorrupt when a frame-sized extent
// is present but fails validation (a torn or overwritten record).
func decodeOne(b []byte) (rec Record, n int, status decodeStatus) {
	le := binary.LittleEndian
	if len(b) < 8 {
		return rec, 0, decodeShort
	}
	bodyLen := int(le.Uint32(b[0:]))
	if bodyLen == 0 {
		return rec, 0, decodeShort // zeroed tail
	}
	if bodyLen < recHeaderSize {
		return rec, 0, decodeCorrupt
	}
	if len(b) < 8+bodyLen {
		return rec, 0, decodeShort
	}
	body := b[8 : 8+bodyLen]
	if checksum(body) != le.Uint32(b[4:]) {
		return rec, 0, decodeCorrupt
	}
	rec.LSN = le.Uint64(body[0:])
	rec.TxnID = le.Uint64(body[8:])
	rec.PrevLSN = le.Uint64(body[16:])
	rec.Type = RecordType(body[24])
	rec.TableID = le.Uint32(body[25:])
	rec.PageID = le.Uint64(body[29:])
	rec.Slot = le.Uint16(body[37:])
	beforeLen := int(le.Uint32(body[39:]))
	afterLen := int(le.Uint32(body[43:]))
	if recHeaderSize+beforeLen+afterLen != bodyLen {
		return rec, 0, decodeCorrupt
	}
	rec.Before = append([]byte(nil), body[recHeaderSize:recHeaderSize+beforeLen]...)
	rec.After = append([]byte(nil), body[recHeaderSize+beforeLen:]...)
	return rec, 8 + bodyLen, decodeOK
}

// castagnoli is the CRC-32C table; the stdlib computes it with the CPU's
// CRC instructions where they exist.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is CRC-32C over the body; it lets recovery detect torn records in
// the NVM buffer's tail and resync past damaged regions of the SSD log file.
// A zeroed extent never reaches it: decodeOne classifies a zero length word
// as a clean tail before checking anything else.
func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// LogStore is the SSD-resident log file.
type LogStore interface {
	// Append durably appends data to the log, charging the worker. It must
	// not retain data: the caller reuses the slice once Append returns.
	Append(c *vclock.Clock, data []byte) error
	// ReadAll returns the full log contents.
	ReadAll(c *vclock.Clock) ([]byte, error)
	// Truncate discards the log (after a checkpoint).
	Truncate(c *vclock.Clock) error
}

// MaxShards caps Options.Shards; beyond this the per-shard regions stop
// paying for their header overhead on any plausible buffer size.
const MaxShards = 64

// Options configures a Manager.
type Options struct {
	// Buffer is the NVM arena holding the log buffer. Required.
	Buffer *pmem.PMem
	// Store is the SSD log file. Required.
	Store LogStore
	// Shards splits the NVM buffer into this many independent append
	// regions with worker-affine assignment, taking the append mutex off
	// the multi-worker commit path. 0 or 1 (the default) keeps the original
	// single-buffer layout; values above MaxShards are clamped. Recovery
	// must be given the same shard count the buffer was written with.
	Shards int
	// FlushThreshold triggers an asynchronous append of a shard's contents
	// to the SSD log once the shard holds this many bytes. Defaults to half
	// the shard region.
	FlushThreshold int64

	// Obs attaches the observability layer: append/flush latency histograms
	// and tracer events. Nil disables both.
	Obs *obs.Obs
}

// bufHeaderSize reserves space at the front of each shard region for the
// persisted write offset, so recovery knows how much of the region is live.
const bufHeaderSize = pmem.CacheLineSize

// walBufMagic ("SPFWAL01") marks an initialized NVM log buffer region.
const walBufMagic = 0x53504657414C3031

// normalizeShards clamps a configured shard count to [1, MaxShards].
func normalizeShards(n int) int {
	if n <= 1 {
		return 1
	}
	if n > MaxShards {
		return MaxShards
	}
	return n
}

// shardRegions carves an arena of size bytes into n [base, limit) regions.
// Bases are cache-line aligned (the extent word at base+8 must be an aligned
// 8-byte store for torn-atomicity); the last region absorbs the remainder,
// so with n=1 the single region is exactly [0, size) — the original layout.
func shardRegions(size int64, n int) [][2]int64 {
	region := size / int64(n)
	region -= region % pmem.CacheLineSize
	out := make([][2]int64, n)
	for i := 0; i < n; i++ {
		base := int64(i) * region
		limit := base + region
		if i == n-1 {
			limit = size
		}
		out[i] = [2]int64{base, limit}
	}
	return out
}

// walShard is one independent append region of the NVM log buffer. Its
// fields are guarded by mu except base/limit (immutable) and the ring
// (internally synchronized; mu makes its appenders its single producer).
type walShard struct {
	mu    sync.Mutex
	base  int64 // region start: magic at base, extent word at base+8
	limit int64 // region end (exclusive)

	bufOff  int64  // next free byte (absolute arena offset), under mu
	scratch []byte // record-encoding buffer reused across appends (under mu)
	drain   []byte // flush staging, region → store, reused across flushes (under mu)

	// Per-shard traffic counters, under mu: counting inside the append
	// critical section costs nothing extra, while manager-global atomics
	// would put two more contended cache-line RMWs on every commit.
	appends int64
	commits int64

	// Observability: the ring is only emitted into under mu, so a shard's
	// append events serialize onto one track.
	ring *obs.Ring

	// Pad shards out of each other's cache lines: they are allocated
	// back-to-back at New, and cross-shard false sharing on mu/bufOff would
	// re-serialize the very appenders the sharding separates.
	_ [64]byte
}

// Manager is the write-ahead log manager.
type Manager struct {
	pm        *pmem.PMem
	store     LogStore
	threshold int64 // per-shard flush trigger

	shards []*walShard

	// flushMu serializes combined flushes: the appender that trips a
	// shard's threshold becomes the group-commit leader, and committers
	// blocked behind it become followers who re-check durableLSN on entry.
	// Lock order is flushMu → shard mu (every shard, in index order);
	// appenders never take flushMu while holding a shard mutex.
	flushMu sync.Mutex

	// durableLSN is the group-commit watermark: every LSN ≤ durableLSN was
	// covered by a completed combined flush. It exists purely to let
	// followers skip redundant flushes — records above it that are already
	// persisted in an NVM shard are just as durable (NVM is the commit
	// point; the SSD flush is buffer-space management).
	durableLSN atomic.Uint64

	// nextLSN is the lock-free LSN allocator — the one shared word every
	// committer must touch. Padding keeps that RMW from false-sharing with
	// the read-mostly fields around it.
	_       [64]byte
	nextLSN atomic.Uint64
	_       [56]byte

	flushes atomic.Int64
	// logBytes counts the bytes shipped to the store since the last
	// Truncate: the log a recovery would have to read back.
	logBytes atomic.Int64

	obs       *obs.Obs
	flushRing *obs.Ring // flush events, emitted under flushMu
	hAppend   *metrics.Histogram
	hFlush    *metrics.Histogram
}

// New creates a WAL manager over an empty log buffer.
func New(opt Options) (*Manager, error) {
	if opt.Buffer == nil || opt.Store == nil {
		return nil, errors.New("wal: Buffer and Store are required")
	}
	n := normalizeShards(opt.Shards)
	if n == 1 {
		if opt.Buffer.Size() < bufHeaderSize+1024 {
			return nil, fmt.Errorf("wal: NVM log buffer of %d bytes is too small", opt.Buffer.Size())
		}
	} else if opt.Buffer.Size()/int64(n) < bufHeaderSize+1024 {
		return nil, fmt.Errorf("wal: NVM log buffer of %d bytes is too small for %d shards", opt.Buffer.Size(), n)
	}
	m := &Manager{pm: opt.Buffer, store: opt.Store}
	for i, reg := range shardRegions(opt.Buffer.Size(), n) {
		sh := &walShard{base: reg[0], limit: reg[1], bufOff: reg[0] + bufHeaderSize}
		if opt.Obs != nil {
			label := "wal"
			if i > 0 {
				label = fmt.Sprintf("wal%d", i)
			}
			sh.ring = opt.Obs.NewRing(label)
		}
		m.shards = append(m.shards, sh)
	}
	m.threshold = opt.FlushThreshold
	if m.threshold <= 0 {
		m.threshold = (m.shards[0].limit - m.shards[0].base) / 2
	}
	if opt.Obs != nil {
		m.obs = opt.Obs
		m.flushRing = opt.Obs.NewRing("wal-flush")
		m.hAppend = opt.Obs.Hist(obs.HWALAppend)
		m.hFlush = opt.Obs.Hist(obs.HWALFlush)
	}
	m.nextLSN.Store(1)
	ctx := vclock.New()
	for _, sh := range m.shards {
		var hdr [16]byte
		binary.LittleEndian.PutUint64(hdr[0:], walBufMagic)
		binary.LittleEndian.PutUint64(hdr[8:], uint64(sh.bufOff))
		base := sh.base
		if _, err := device.Retry(ctx, func() error {
			if err := m.pm.WriteErr(ctx, base, hdr[:]); err != nil {
				return err
			}
			return m.pm.PersistErr(ctx, base, len(hdr))
		}); err != nil {
			return nil, fmt.Errorf("wal: initializing log buffer: %w", err)
		}
	}
	return m, nil
}

// Shards reports the number of append shards the buffer is split into.
func (m *Manager) Shards() int { return len(m.shards) }

// shardFor returns the appending worker's shard, fixed by its clock's
// creation index (worker affinity keeps a worker's records batched in one
// region and its cache lines hot).
func (m *Manager) shardFor(c *vclock.Clock) *walShard {
	return m.shards[c.Worker()%len(m.shards)]
}

// Lock shims: WAL mutex acquisitions route through these so the
// -tags lockcheck runtime checker sees the flushMu → shard-mu order (and
// that appenders treat the shard mutex as a leaf).

func (m *Manager) lockShard(sh *walShard) {
	lockcheck.Acquire(sh, lockcheck.RankWALShard)
	sh.mu.Lock()
}

func (m *Manager) unlockShard(sh *walShard) {
	sh.mu.Unlock()
	lockcheck.Release(sh, lockcheck.RankWALShard)
}

func (m *Manager) lockFlush() {
	lockcheck.Acquire(m, lockcheck.RankWALFlush)
	m.flushMu.Lock()
}

func (m *Manager) tryLockFlush() bool {
	if !m.flushMu.TryLock() {
		return false
	}
	lockcheck.Acquired(m, lockcheck.RankWALFlush)
	return true
}

func (m *Manager) unlockFlush() {
	m.flushMu.Unlock()
	lockcheck.Release(m, lockcheck.RankWALFlush)
}

// NextLSN returns the LSN the next appended record will receive.
func (m *Manager) NextLSN() uint64 { return m.nextLSN.Load() }

// DurableLSN returns the group-commit watermark: the highest LSN covered by
// a completed combined flush to the SSD log.
func (m *Manager) DurableLSN() uint64 { return m.durableLSN.Load() }

// persistShardOffset persists sh's live-region extent. Caller holds sh.mu
// (or is single-threaded setup/recovery). Only the 8-byte offset word is
// written — an aligned 8-byte pmem store is torn-atomic, so a crash leaves
// either the old or the new extent, never a garbled one (the magic word is
// written once at New and never touched again).
func (m *Manager) persistShardOffset(c *vclock.Clock, sh *walShard) error {
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], uint64(sh.bufOff))
	off := sh.base + 8
	_, err := device.Retry(c, func() error {
		if err := m.pm.WriteErr(c, off, word[:]); err != nil {
			return err
		}
		return m.pm.PersistErr(c, off, len(word))
	})
	return err
}

// Append assigns the record an LSN, persists it in the worker's NVM shard,
// and returns the LSN. The record is durable once this returns: persistence
// in the NVM buffer is the commit point. If the shard passes the flush
// threshold the appender joins a group commit — it becomes the combining
// flusher, or skips out if a concurrent leader's watermark already covers
// its LSN (the paper flushes asynchronously; here the leading worker pays,
// which charges the same total I/O).
func (m *Manager) Append(c *vclock.Clock, rec *Record) (uint64, error) {
	sh := m.shardFor(c)
	m.lockShard(sh)
	var start int64
	if m.obs != nil {
		start = c.Now()
	}
	rec.LSN = m.nextLSN.Add(1) - 1
	// Encode into the shard's scratch buffer: zero allocations once it has
	// grown to the steady-state record size. Re-encoded after an overflow
	// drain, since the scratch is unprotected while the shard lock is down.
	var frame []byte
	for {
		sh.scratch = rec.encode(sh.scratch[:0])
		frame = sh.scratch
		if sh.bufOff+int64(len(frame)) <= sh.limit {
			break
		}
		if sh.bufOff == sh.base+bufHeaderSize {
			m.unlockShard(sh)
			return 0, fmt.Errorf("wal: record of %d bytes exceeds the log buffer", len(frame))
		}
		// Shard full: drain it via a combined flush. The shard lock drops
		// first — flushMu → shard mu is the only legal order.
		m.unlockShard(sh)
		if err := m.Flush(c); err != nil {
			return 0, err
		}
		m.lockShard(sh)
	}
	off := sh.bufOff
	// Record bytes persist before the extent word advances past them: a
	// crash mid-append leaves the extent pointing at the last whole record,
	// so a torn record is invisible to recovery and the append is simply
	// unacknowledged. A torn write retries by rewriting the full frame.
	if _, err := device.Retry(c, func() error {
		if err := m.pm.WriteErr(c, off, frame); err != nil {
			return err
		}
		return m.pm.PersistErr(c, off, len(frame))
	}); err != nil {
		m.unlockShard(sh)
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	sh.bufOff = off + int64(len(frame))
	if err := m.persistShardOffset(c, sh); err != nil {
		sh.bufOff = off // record never became visible
		m.unlockShard(sh)
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	needFlush := sh.bufOff-(sh.base+bufHeaderSize) >= m.threshold
	if m.obs != nil {
		now := c.Now()
		m.hAppend.Observe(now - start)
		sh.ring.Emit(obs.Event{
			TS: now, Dur: now - start,
			Type: obs.EvWALAppend, From: obs.TierNVM, Outcome: obs.OutOK,
			Page: obs.NoPage, Arg: int64(rec.LSN),
		})
	}
	sh.appends++
	if rec.Type == RecCommit {
		sh.commits++
	}
	m.unlockShard(sh)
	var err error
	if needFlush {
		err = m.maybeGroupFlush(c, rec.LSN)
	}
	return rec.LSN, err
}

// maybeGroupFlush is the group-commit ticket check: if a concurrent leader's
// watermark already covers lsn the flush is skipped (the follower's records
// are on SSD, or still NVM-durable in a shard — either way safe); otherwise
// the caller tries to become the leader. If another leader already holds
// flushMu the caller skips out instead of convoying behind it: the record is
// NVM-durable (commit happened at Append), the threshold flush is only
// buffer-space management, and any bytes the in-flight flush misses retrigger
// it from the next append over the threshold.
func (m *Manager) maybeGroupFlush(c *vclock.Clock, lsn uint64) error {
	if m.durableLSN.Load() >= lsn {
		return nil
	}
	if !m.tryLockFlush() {
		return nil
	}
	if m.durableLSN.Load() >= lsn {
		m.unlockFlush()
		return nil
	}
	err := m.combinedFlush(c)
	m.unlockFlush()
	return err
}

// Flush forces the NVM buffer's contents onto the SSD log, regardless of
// the group-commit watermark: an overflow drain needs the space freed.
func (m *Manager) Flush(c *vclock.Clock) error {
	m.lockFlush()
	err := m.combinedFlush(c)
	m.unlockFlush()
	return err
}

// combinedFlush drains every shard's live bytes to the SSD log and resets
// the shards. Caller holds flushMu. The watermark is captured before any
// shard lock: every LSN allocated before the capture is either persisted in
// a shard this flush drains (LSN allocation and frame persist share one
// shard critical section, and each shard is locked after the capture),
// rolled back by a failed append, or — in the rare overflow-drain race —
// left in a shard, where NVM persistence keeps it durable anyway.
//
// On failure the drained shards keep their contents, so no record is lost:
// a torn append leaves a partial batch in the file that a later successful
// flush re-appends in full — recovery's resync scan plus LSN dedup
// reconcile the duplicates.
func (m *Manager) combinedFlush(c *vclock.Clock) error {
	wm := m.nextLSN.Load() - 1
	var start int64
	if m.obs != nil {
		start = c.Now()
	}
	// Drain one shard at a time: lock it, ship its live bytes as one SSD
	// segment, reset its extent, unlock, move on. Appenders on the other
	// shards keep committing while a shard drains — recovery merges the
	// per-shard file segments by LSN, so segment order in the file does not
	// matter. Aborting on the first error leaves the remaining shards
	// untouched (their records stay NVM-durable) and the watermark behind,
	// so a later flush retries them.
	total := int64(0)
	for _, sh := range m.shards {
		n, err := m.drainShard(c, sh)
		total += n
		if err != nil {
			return err
		}
	}
	if total <= 0 {
		return nil
	}
	m.flushes.Add(1)
	if m.durableLSN.Load() < wm {
		m.durableLSN.Store(wm) // flushMu serializes writers
	}
	if m.obs != nil {
		now := c.Now()
		m.hFlush.Observe(now - start)
		m.flushRing.Emit(obs.Event{
			TS: now, Dur: now - start,
			Type: obs.EvWALFlush, From: obs.TierNVM, To: obs.TierSSD,
			Page: obs.NoPage, Arg: total,
		})
		m.flushRing.Emit(obs.Event{
			TS: now, Dur: now - start,
			Type: obs.EvWALGroupCommit, From: obs.TierNVM, To: obs.TierSSD,
			Page: obs.NoPage, Arg: int64(wm),
		})
	}
	return nil
}

// drainShard ships one shard's live bytes to the SSD log and resets its
// extent, holding only that shard's mutex. Returns the number of bytes
// drained. A failed extent reset leaves the shard's records both in the
// file and in the buffer; recovery dedups by LSN, and the next flush
// retries the reset.
func (m *Manager) drainShard(c *vclock.Clock, sh *walShard) (int64, error) {
	m.lockShard(sh)
	defer m.unlockShard(sh)
	n := sh.bufOff - (sh.base + bufHeaderSize)
	if n <= 0 {
		return 0, nil
	}
	// LogStore.Append copies or writes data out before returning, so one
	// staging buffer per shard serves every flush.
	if int64(cap(sh.drain)) < n {
		sh.drain = make([]byte, n)
	}
	data := sh.drain[:n]
	src := sh.base + bufHeaderSize
	if _, err := device.Retry(c, func() error { return m.pm.ReadErr(c, src, data) }); err != nil {
		return 0, fmt.Errorf("wal: flush: %w", err)
	}
	if _, err := device.Retry(c, func() error { return m.store.Append(c, data) }); err != nil {
		return 0, fmt.Errorf("wal: flush: %w", err)
	}
	m.logBytes.Add(n)
	old := sh.bufOff
	sh.bufOff = sh.base + bufHeaderSize
	if err := m.persistShardOffset(c, sh); err != nil {
		sh.bufOff = old
		return n, fmt.Errorf("wal: flush: %w", err)
	}
	return n, nil
}

// Truncate discards the whole log: the SSD log and whatever the NVM shard
// buffers still hold, which it does not flush. Call it only when no record
// in the log is needed for recovery: every logged change is durable in place
// and no append runs concurrently. Its one caller, engine.DB.Checkpoint,
// meets that by running quiescently after flushing dirty DRAM and the log.
func (m *Manager) Truncate(c *vclock.Clock) error {
	m.lockFlush()
	defer m.unlockFlush()
	for _, sh := range m.shards {
		m.lockShard(sh)
	}
	defer func() {
		for i := len(m.shards) - 1; i >= 0; i-- {
			m.unlockShard(m.shards[i])
		}
	}()
	for _, sh := range m.shards {
		if old := sh.bufOff; old > sh.base+bufHeaderSize {
			sh.bufOff = sh.base + bufHeaderSize
			if err := m.persistShardOffset(c, sh); err != nil {
				sh.bufOff = old
				return fmt.Errorf("wal: truncate: %w", err)
			}
		}
	}
	if _, err := device.Retry(c, func() error { return m.store.Truncate(c) }); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	m.logBytes.Store(0)
	return nil
}

// LogBytes reports the bytes shipped to the store since the last Truncate.
// A failed flush that left a partial batch in the store counts nothing, so
// this can under-read the store by that torn prefix.
func (m *Manager) LogBytes() int64 { return m.logBytes.Load() }

// BufferBytes reports the size of the NVM log buffer, the most one
// combined flush can ship.
func (m *Manager) BufferBytes() int64 { return m.pm.Size() }

// Stats reports append/flush/commit counts, summing the per-shard counters.
func (m *Manager) Stats() (appends, flushes, commits int64) {
	for _, sh := range m.shards {
		m.lockShard(sh)
		appends += sh.appends
		commits += sh.commits
		m.unlockShard(sh)
	}
	return appends, m.flushes.Load(), commits
}
