// Package addr provides helpers for the 48-bit physical/machine address
// space used throughout the simulator: splitting addresses into macro-page
// index and offset, region decoding, and size arithmetic.
//
// The paper assumes a 48-bit memory address. A macro page — the migration
// granularity — ranges from 4 KB to 4 MB, so for a 4 MB page the lowest
// 22 bits are the in-page offset and the highest 26 bits the macro-page ID
// (Fig. 6 of the paper).
package addr

import (
	"fmt"
	"math/bits"
)

// Bits is the width of the simulated physical address space.
const Bits = 48

// Mask selects the valid address bits.
const Mask = (uint64(1) << Bits) - 1

// Common power-of-two sizes in bytes.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30
)

// PageGeom describes a macro-page split of the address space.
type PageGeom struct {
	PageSize  uint64 // macro-page size in bytes; power of two
	offsetLen uint   // log2(PageSize)
}

// NewPageGeom returns the geometry for the given macro-page size.
// The size must be a power of two between 4 KiB and 4 MiB inclusive
// (the paper's evaluated range) — larger values are accepted up to 1 GiB
// so that sensitivity studies beyond the paper's sweep remain possible.
func NewPageGeom(pageSize uint64) (PageGeom, error) {
	if pageSize < 4*KiB || pageSize > GiB {
		return PageGeom{}, fmt.Errorf("addr: macro-page size %d out of range [4KiB, 1GiB]", pageSize)
	}
	if pageSize&(pageSize-1) != 0 {
		return PageGeom{}, fmt.Errorf("addr: macro-page size %d not a power of two", pageSize)
	}
	return PageGeom{PageSize: pageSize, offsetLen: uint(bits.Len64(pageSize) - 1)}, nil
}

// MustPageGeom is NewPageGeom that panics on error; for constants in tests
// and experiment drivers where the size is a literal.
func MustPageGeom(pageSize uint64) PageGeom {
	g, err := NewPageGeom(pageSize)
	if err != nil {
		panic(err)
	}
	return g
}

// OffsetBits returns log2(PageSize): the number of in-page offset bits.
func (g PageGeom) OffsetBits() uint { return g.offsetLen }

// PageOf returns the macro-page ID containing a.
func (g PageGeom) PageOf(a uint64) uint64 { return (a & Mask) >> g.offsetLen }

// OffsetOf returns the in-page offset of a.
func (g PageGeom) OffsetOf(a uint64) uint64 { return a & (g.PageSize - 1) }

// Join rebuilds an address from a macro-page ID and offset.
func (g PageGeom) Join(page, offset uint64) uint64 {
	return ((page << g.offsetLen) | (offset & (g.PageSize - 1))) & Mask
}

// PagesIn returns how many macro pages cover the given capacity in bytes.
// The capacity must be a multiple of the page size.
func (g PageGeom) PagesIn(capacity uint64) uint64 { return capacity / g.PageSize }

// AlignDown rounds a down to a multiple of size (power of two).
func AlignDown(a, size uint64) uint64 { return a &^ (size - 1) }

// AlignUp rounds a up to a multiple of size (power of two).
func AlignUp(a, size uint64) uint64 { return (a + size - 1) &^ (size - 1) }
