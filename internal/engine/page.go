package engine

import (
	"encoding/binary"
	"fmt"

	"github.com/spitfire-db/spitfire/internal/core"
)

// Page layout (within the 16 KB buffer-managed page):
//
//	[0,  4)  magic
//	[4,  8)  table id
//	[8, 12)  tuple payload size
//	[12, 64) reserved
//	[64, …)  fixed-size tuple slots
//
// Each slot is: 8-byte tuple header | 8-byte key | payload. The tuple
// header carries the version's write timestamp plus occupancy/tombstone
// flags, which is all MVTO needs to decide visibility (§5.2). Page LSNs are
// unnecessary: the WAL logs full slot images, so redo is a blind physical
// replay in LSN order.
const (
	pageHeaderSize = 64
	pageMagic      = 0x53504750 // "SPGP"

	tupleHeaderSize = 8
	keySize         = 8

	// Tuple header flags (top bits of the 64-bit header; the rest is the
	// write timestamp).
	flagOccupied  = uint64(1) << 62
	flagTombstone = uint64(1) << 63
	wtsMask       = flagOccupied - 1
)

// slotSize returns the on-page size of one tuple slot.
func slotSize(tupleSize int) int { return tupleHeaderSize + keySize + tupleSize }

// slotsPerPage returns how many tuples of the given payload size fit.
func slotsPerPage(tupleSize int) int {
	return (core.PageSize - pageHeaderSize) / slotSize(tupleSize)
}

// slotOffset returns the page offset of slot s.
func slotOffset(tupleSize, s int) int {
	return pageHeaderSize + s*slotSize(tupleSize)
}

// RID identifies a tuple: page id in the high bits, slot in the low 12.
type RID = uint64

const ridSlotBits = 12

// makeRID packs a page id and slot.
func makeRID(pid core.PageID, slot int) RID {
	return pid<<ridSlotBits | uint64(slot)
}

// splitRID unpacks a RID.
func splitRID(rid RID) (core.PageID, int) {
	return rid >> ridSlotBits, int(rid & (1<<ridSlotBits - 1))
}

// tupleHeader packs flags and a write timestamp.
func tupleHeader(wts uint64, tombstone bool) uint64 {
	h := flagOccupied | (wts & wtsMask)
	if tombstone {
		h |= flagTombstone
	}
	return h
}

// parseTupleHeader unpacks a tuple header.
func parseTupleHeader(h uint64) (wts uint64, occupied, tombstone bool) {
	return h & wtsMask, h&flagOccupied != 0, h&flagTombstone != 0
}

// encodePageHeader writes the page header into buf.
func encodePageHeader(buf []byte, tableID uint32, tupleSize int) {
	le := binary.LittleEndian
	le.PutUint32(buf[0:], pageMagic)
	le.PutUint32(buf[4:], tableID)
	le.PutUint32(buf[8:], uint32(tupleSize))
}

// decodePageHeader parses a page header.
func decodePageHeader(buf []byte) (tableID uint32, tupleSize int, ok bool) {
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != pageMagic {
		return 0, 0, false
	}
	return le.Uint32(buf[4:]), int(le.Uint32(buf[8:])), true
}

// slotImage is a helper bundling a full slot's bytes with parsed fields.
type slotImage struct {
	header  uint64
	key     uint64
	payload []byte // aliases the raw slot buffer
	raw     []byte
}

func parseSlot(raw []byte) slotImage {
	le := binary.LittleEndian
	return slotImage{
		header:  le.Uint64(raw[0:]),
		key:     le.Uint64(raw[8:]),
		payload: slotPayload(raw),
		raw:     raw,
	}
}

// slotPayload returns the payload region of a slot image.
func slotPayload(raw []byte) []byte { return raw[tupleHeaderSize+keySize:] }

// stampSlot writes header and key into a slot image whose payload is
// already in place.
func stampSlot(dst []byte, header, key uint64) {
	le := binary.LittleEndian
	le.PutUint64(dst[0:], header)
	le.PutUint64(dst[8:], key)
}

// buildSlot serializes a slot image into dst.
func buildSlot(dst []byte, header, key uint64, payload []byte) {
	stampSlot(dst, header, key)
	copy(slotPayload(dst), payload)
}

// validateSlot bounds-checks a slot index for a table.
func validateSlot(tupleSize, slot int) error {
	if slot < 0 || slot >= slotsPerPage(tupleSize) {
		return fmt.Errorf("engine: slot %d out of range for %d-byte tuples", slot, tupleSize)
	}
	return nil
}
