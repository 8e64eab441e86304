// Package ssd simulates the block-addressable tier of the hierarchy: an
// Optane DC SSD that transfers whole 16 KB pages (Table 1 of the paper).
//
// MemStore keeps pages in memory (the device model supplies the SSD's cost;
// the host's RAM merely stores the bytes) and lends them to the buffer
// manager instead of copying them out. DRAM and NVM frames alike keep the
// page they borrow; an NVM frame keeps it across a crash, and recovery takes
// it back with Relend.
package ssd

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"github.com/spitfire-db/spitfire/internal/dense"
	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// PageSize is the database page size, matching the paper's 16 KB pages.
const PageSize = 16384

// UnitSize is the granularity of a WriteUnits mask: a page's 64 units.
const UnitSize = PageSize / 64

// AllUnits is the WriteUnits mask of every unit of a page.
const AllUnits = ^uint64(0)

// Store is a page-granular block device. The caller serialises access to
// any one page; distinct pages may be used concurrently. The buffer manager
// reads pages only through Lend and writes them only through WriteUnits.
type Store interface {
	// ReadPage copies page pid into buf (len(buf) == PageSize).
	// It returns an error if the page was never written.
	ReadPage(c *vclock.Clock, pid uint64, buf []byte) error
	// WritePage durably stores buf as page pid.
	WritePage(c *vclock.Clock, pid uint64, buf []byte) error
	// WriteUnits durably stores the units of buf whose bits are set in units
	// (bit u covers bytes [u*UnitSize, (u+1)*UnitSize)) as page pid's, and
	// all of buf if the store does not hold the page yet. It charges exactly
	// what WritePage charges, before any byte moves, so a failed write leaves
	// the old image. Only the units named are read, so the rest of buf may
	// be stale. WritePage is WriteUnits with AllUnits.
	WriteUnits(c *vclock.Clock, pid uint64, buf []byte, units uint64) error
	// Contains reports whether the page exists on the device.
	Contains(pid uint64) bool
	// MaxPageID returns the largest page id ever written (ok=false when
	// the device is empty). Recovery uses it to bound page scans.
	MaxPageID() (pid uint64, ok bool)
	// Lend charges a read of page pid exactly as ReadPage does and returns
	// the page's own backing array instead of a copy. The lent page is
	// read-only to the borrower. Its backing array is stable for the page's
	// life, and a write of pid rewrites it in place, so a borrower that
	// keeps it sees the new image.
	Lend(c *vclock.Clock, pid uint64) ([]byte, error)
	// Relend returns the array Lend lends for page pid without charging or
	// faulting a read. It is for a borrower that held the page across a
	// restart: recovery hands an NVM frame back the page it borrowed before
	// the crash. A store that persists its pages across restarts must lend
	// the same bytes for a page after a restart as before it.
	Relend(pid uint64) ([]byte, error)
	// Device returns the cost model in use.
	Device() *device.Device
}

// CopyUnits copies the units of src named in units into dst (both whole
// pages), one copy per run of consecutive units.
func CopyUnits(dst, src []byte, units uint64) {
	for units != 0 {
		lo := bits.TrailingZeros64(units)
		hi := lo + bits.TrailingZeros64(^(units >> lo))
		copy(dst[lo*UnitSize:hi*UnitSize], src[lo*UnitSize:hi*UnitSize])
		units &= AllUnits << hi // a shift by 64 clears them all
	}
}

// MemStore is an in-memory Store: a dense directory of page arrays indexed
// by page id, so finding a page takes three atomic loads and no lock. A
// page's array is allocated by its first write and never moves.
type MemStore struct {
	dev   *device.Device
	pages dense.Directory[atomic.Pointer[[PageSize]byte]]
	n     atomic.Int64  // pages stored
	max   atomic.Uint64 // largest page id stored, plus one; 0 when empty
}

// NewMem creates an in-memory SSD. If dev is nil a fresh device with
// Table 1 SSD parameters is used.
func NewMem(dev *device.Device) *MemStore {
	if dev == nil {
		dev = device.New(device.SSDParams)
	}
	return &MemStore{dev: dev}
}

// page returns page pid's array, or nil if the page was never written. An
// id past the directory's span was never written.
func (s *MemStore) page(pid uint64) *[PageSize]byte {
	if pid >= dense.Span {
		return nil
	}
	return s.pages.Get(pid).Load()
}

// Device returns the cost model in use.
func (s *MemStore) Device() *device.Device { return s.dev }

// ReadPage implements Store.
func (s *MemStore) ReadPage(c *vclock.Clock, pid uint64, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("ssd: read buffer is %d bytes, want %d", len(buf), PageSize)
	}
	p, err := s.Lend(c, pid)
	if err != nil {
		return err
	}
	copy(buf, p)
	return nil
}

// Lend implements Store: it returns the page's backing array, which a write
// only ever rewrites in place.
func (s *MemStore) Lend(c *vclock.Clock, pid uint64) ([]byte, error) {
	p, err := s.Relend(pid)
	if err != nil {
		return nil, err
	}
	if _, err := s.dev.ReadErr(c, PageSize); err != nil {
		return nil, fmt.Errorf("ssd: read page %d: %w", pid, err)
	}
	return p, nil
}

// Relend implements Store.
func (s *MemStore) Relend(pid uint64) ([]byte, error) {
	p := s.page(pid)
	if p == nil {
		return nil, fmt.Errorf("ssd: page %d does not exist", pid)
	}
	return p[:], nil
}

// WritePage implements Store.
func (s *MemStore) WritePage(c *vclock.Clock, pid uint64, buf []byte) error {
	return s.WriteUnits(c, pid, buf, AllUnits)
}

// WriteUnits implements Store. Page writes are modeled failure-atomic: real
// SSDs complete or discard a sector-aligned page program from their
// power-loss-protected buffer, so an injected torn write surfaces as an
// error without corrupting the previous page image (torn-write *data*
// effects belong to the byte-addressable NVM tier and the log). A page's
// first write copies all of buf and publishes the array only once the bytes
// are in; a later one copies each run of set bits into the array in place.
func (s *MemStore) WriteUnits(c *vclock.Clock, pid uint64, buf []byte, units uint64) error {
	if len(buf) != PageSize {
		return fmt.Errorf("ssd: write buffer is %d bytes, want %d", len(buf), PageSize)
	}
	if pid >= dense.Span {
		return fmt.Errorf("ssd: page %d is past the store's span of %d pages", pid, uint64(dense.Span))
	}
	if _, err := s.dev.WriteErr(c, PageSize); err != nil {
		return fmt.Errorf("ssd: write page %d: %w", pid, err)
	}
	e := s.pages.Get(pid)
	if p := e.Load(); p != nil {
		CopyUnits(p[:], buf, units)
		return nil
	}
	p := new([PageSize]byte)
	copy(p[:], buf)
	for m := s.max.Load(); m <= pid && !s.max.CompareAndSwap(m, pid+1); {
		m = s.max.Load()
	}
	e.Store(p)
	s.n.Add(1)
	return nil
}

// Contains implements Store.
func (s *MemStore) Contains(pid uint64) bool { return s.page(pid) != nil }

// MaxPageID implements Store. A page Contains reports is never past it: a
// first write raises the maximum before it publishes the page.
func (s *MemStore) MaxPageID() (uint64, bool) {
	m := s.max.Load()
	return m - 1, m > 0
}

// Len reports the number of pages stored.
func (s *MemStore) Len() int { return int(s.n.Load()) }
