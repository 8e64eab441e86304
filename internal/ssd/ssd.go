// Package ssd simulates the block-addressable tier of the hierarchy: an
// Optane DC SSD that transfers whole 16 KB pages (Table 1 of the paper).
//
// Two implementations are provided. MemStore keeps pages in memory and is
// what the experiments use (the device model supplies the SSD's cost; the
// host's RAM merely stores the bytes). FileStore is backed by a real file
// so the recovery example can survive process restarts.
package ssd

import (
	"fmt"
	"os"
	"sync"

	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// PageSize is the database page size, matching the paper's 16 KB pages.
const PageSize = 16384

// Store is a page-granular block device.
type Store interface {
	// ReadPage copies page pid into buf (len(buf) == PageSize).
	// It returns an error if the page was never written.
	ReadPage(c *vclock.Clock, pid uint64, buf []byte) error
	// WritePage durably stores buf as page pid.
	WritePage(c *vclock.Clock, pid uint64, buf []byte) error
	// Contains reports whether the page exists on the device.
	Contains(pid uint64) bool
	// MaxPageID returns the largest page id ever written (ok=false when
	// the device is empty). Recovery uses it to bound page scans.
	MaxPageID() (pid uint64, ok bool)
	// Lend charges a read of page pid exactly as ReadPage does and, when
	// the store keeps its pages in memory, returns the page's own backing
	// array instead of a copy (ok=false and no charge from a store that
	// cannot lend; read into a buffer with ReadPage instead). The lent page
	// is read-only. Its backing array is stable for the page's life, but a
	// WritePage of pid rewrites it in place, so the borrower must drop it
	// before the page is written again.
	Lend(c *vclock.Clock, pid uint64) (page []byte, ok bool, err error)
	// Device returns the cost model in use.
	Device() *device.Device
}

// shardCount spreads the page map across locks; must be a power of two.
const shardCount = 64

// shard is one lock of the page map. Every read and write of a page writes
// its shard's mutex, so shards are padded by distance: 56 bytes from one
// mutex to the next keep two shards off each other's cache lines at any
// 8-byte alignment.
type shard struct {
	mu    sync.RWMutex
	pages map[uint64][]byte
	_     [48]byte
}

// MemStore is an in-memory Store.
type MemStore struct {
	dev    *device.Device
	_      [56]byte // dev is read by every page I/O; shard 0's mutex is written by it
	shards [shardCount]shard
}

// NewMem creates an in-memory SSD. If dev is nil a fresh device with
// Table 1 SSD parameters is used.
func NewMem(dev *device.Device) *MemStore {
	if dev == nil {
		dev = device.New(device.SSDParams)
	}
	s := &MemStore{dev: dev}
	for i := range s.shards {
		s.shards[i].pages = make(map[uint64][]byte)
	}
	return s
}

func (s *MemStore) shard(pid uint64) *shard {
	return &s.shards[pid&(shardCount-1)]
}

// Device returns the cost model in use.
func (s *MemStore) Device() *device.Device { return s.dev }

// ReadPage implements Store.
func (s *MemStore) ReadPage(c *vclock.Clock, pid uint64, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("ssd: read buffer is %d bytes, want %d", len(buf), PageSize)
	}
	sh := s.shard(pid)
	sh.mu.RLock()
	p, ok := sh.pages[pid]
	if ok {
		copy(buf, p)
	}
	sh.mu.RUnlock()
	if !ok {
		return fmt.Errorf("ssd: page %d does not exist", pid)
	}
	if _, err := s.dev.ReadErr(c, PageSize); err != nil {
		return fmt.Errorf("ssd: read page %d: %w", pid, err)
	}
	return nil
}

// Lend implements Store: it returns the page's backing array, which
// WritePage only ever rewrites in place.
func (s *MemStore) Lend(c *vclock.Clock, pid uint64) ([]byte, bool, error) {
	sh := s.shard(pid)
	sh.mu.RLock()
	p, ok := sh.pages[pid]
	sh.mu.RUnlock()
	if !ok {
		return nil, false, fmt.Errorf("ssd: page %d does not exist", pid)
	}
	if _, err := s.dev.ReadErr(c, PageSize); err != nil {
		return nil, false, fmt.Errorf("ssd: read page %d: %w", pid, err)
	}
	return p[:PageSize:PageSize], true, nil
}

// WritePage implements Store. Page writes are modeled failure-atomic: real
// SSDs complete or discard a sector-aligned page program from their
// power-loss-protected buffer, so an injected torn write surfaces as an
// error without corrupting the previous page image (torn-write *data*
// effects belong to the byte-addressable NVM tier and the log).
func (s *MemStore) WritePage(c *vclock.Clock, pid uint64, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("ssd: write buffer is %d bytes, want %d", len(buf), PageSize)
	}
	if _, err := s.dev.WriteErr(c, PageSize); err != nil {
		return fmt.Errorf("ssd: write page %d: %w", pid, err)
	}
	sh := s.shard(pid)
	sh.mu.Lock()
	p, ok := sh.pages[pid]
	if !ok {
		p = make([]byte, PageSize)
		sh.pages[pid] = p
	}
	copy(p, buf)
	sh.mu.Unlock()
	return nil
}

// Contains implements Store.
func (s *MemStore) Contains(pid uint64) bool {
	sh := s.shard(pid)
	sh.mu.RLock()
	_, ok := sh.pages[pid]
	sh.mu.RUnlock()
	return ok
}

// MaxPageID implements Store.
func (s *MemStore) MaxPageID() (uint64, bool) {
	var max uint64
	found := false
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for pid := range sh.pages {
			if !found || pid > max {
				max, found = pid, true
			}
		}
		sh.mu.RUnlock()
	}
	return max, found
}

// Len reports the number of pages stored.
func (s *MemStore) Len() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		n += len(s.shards[i].pages)
		s.shards[i].mu.RUnlock()
	}
	return n
}

// FileStore is a Store backed by a file; page pid lives at offset
// pid*PageSize. Pages are considered present once written in this or any
// previous process (tracked via a header-free existence bitmap persisted as
// written ranges — for simplicity, any read within the file's extent
// succeeds).
type FileStore struct {
	dev *device.Device
	mu  sync.Mutex
	f   *os.File
}

// NewFile opens (creating if necessary) a file-backed SSD at path.
func NewFile(path string, dev *device.Device) (*FileStore, error) {
	if dev == nil {
		dev = device.New(device.SSDParams)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ssd: open %s: %w", path, err)
	}
	return &FileStore{dev: dev, f: f}, nil
}

// Device returns the cost model in use.
func (s *FileStore) Device() *device.Device { return s.dev }

// ReadPage implements Store.
func (s *FileStore) ReadPage(c *vclock.Clock, pid uint64, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("ssd: read buffer is %d bytes, want %d", len(buf), PageSize)
	}
	if !s.Contains(pid) {
		return fmt.Errorf("ssd: page %d does not exist", pid)
	}
	if _, err := s.f.ReadAt(buf, int64(pid)*PageSize); err != nil {
		return fmt.Errorf("ssd: read page %d: %w", pid, err)
	}
	if _, err := s.dev.ReadErr(c, PageSize); err != nil {
		return fmt.Errorf("ssd: read page %d: %w", pid, err)
	}
	return nil
}

// Lend implements Store: a file's pages are not in memory to lend.
func (s *FileStore) Lend(*vclock.Clock, uint64) ([]byte, bool, error) { return nil, false, nil }

// WritePage implements Store. As with MemStore, page writes are
// failure-atomic: injected faults fail the write without touching the file.
func (s *FileStore) WritePage(c *vclock.Clock, pid uint64, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("ssd: write buffer is %d bytes, want %d", len(buf), PageSize)
	}
	if _, err := s.dev.WriteErr(c, PageSize); err != nil {
		return fmt.Errorf("ssd: write page %d: %w", pid, err)
	}
	if _, err := s.f.WriteAt(buf, int64(pid)*PageSize); err != nil {
		return fmt.Errorf("ssd: write page %d: %w", pid, err)
	}
	return nil
}

// Contains implements Store.
func (s *FileStore) Contains(pid uint64) bool {
	st, err := s.f.Stat()
	if err != nil {
		return false
	}
	return int64(pid+1)*PageSize <= st.Size()
}

// MaxPageID implements Store.
func (s *FileStore) MaxPageID() (uint64, bool) {
	st, err := s.f.Stat()
	if err != nil || st.Size() < PageSize {
		return 0, false
	}
	return uint64(st.Size()/PageSize) - 1, true
}

// Sync flushes the file to stable storage.
func (s *FileStore) Sync() error { return s.f.Sync() }

// Close closes the underlying file.
func (s *FileStore) Close() error { return s.f.Close() }
