// Address mapping: the channel/rank/bank/row/column bit-field decode a
// multi-channel memory controller hub applies to a physical address before
// routing. A Mapping is a set of non-overlapping bit fields over the 48-bit
// physical space; decode extracts each field, encode reassembles the exact
// address, and the two are a bijection over the whole space (uncovered bits
// are carried through a compacted Rest field). The hub's hot path uses the
// specialized Interleave form, which strips the channel bits in O(1).
package addr

import (
	"fmt"
	"math/bits"
)

// BitField selects Width consecutive bits starting at bit Offset of a
// physical address. A zero Width means the field is absent (it always
// decodes to zero and encodes nothing).
type BitField struct {
	Width  uint // number of bits (0 = absent)
	Offset uint // bit position of the field's LSB
}

// Mask returns the field's positioned bit mask.
func (f BitField) Mask() uint64 {
	if f.Width == 0 {
		return 0
	}
	return ((uint64(1) << f.Width) - 1) << f.Offset
}

// Value extracts the field from address a.
func (f BitField) Value(a uint64) uint64 {
	if f.Width == 0 {
		return 0
	}
	return (a >> f.Offset) & ((uint64(1) << f.Width) - 1)
}

// Place positions field value v at the field's offset; bits of v beyond the
// field width are dropped.
func (f BitField) Place(v uint64) uint64 {
	if f.Width == 0 {
		return 0
	}
	return (v & ((uint64(1) << f.Width) - 1)) << f.Offset
}

// Coord is one decoded address: the five DRAM coordinates plus the
// compacted leftover bits, so Decode/Encode lose nothing.
type Coord struct {
	Channel uint64
	Rank    uint64
	Bank    uint64
	Row     uint64
	Column  uint64

	// Rest packs every address bit not covered by a field, LSB-first in
	// ascending bit order. Carrying it makes Decode/Encode a bijection over
	// the full 48-bit space even for partial mappings.
	Rest uint64
}

// Mapping is a validated channel/rank/bank/row/column bit-field layout.
type Mapping struct {
	Channel BitField
	Rank    BitField
	Bank    BitField
	Row     BitField
	Column  BitField

	rest []BitField // uncovered bit runs, ascending offset
}

// NewMapping validates the five fields — each must lie inside the 48-bit
// physical space and no two may overlap — and precomputes the uncovered-bit
// runs. Zero-width fields are allowed (a mapping need not use every
// coordinate; a single-channel mapping has a zero-width Channel field).
func NewMapping(channel, rank, bank, row, column BitField) (*Mapping, error) {
	m := &Mapping{Channel: channel, Rank: rank, Bank: bank, Row: row, Column: column}
	var covered uint64
	for _, f := range []struct {
		name  string
		field BitField
	}{
		{"channel", channel}, {"rank", rank}, {"bank", bank}, {"row", row}, {"column", column},
	} {
		if f.field.Width == 0 {
			continue
		}
		if f.field.Width > Bits || f.field.Offset >= Bits || f.field.Offset+f.field.Width > Bits {
			return nil, fmt.Errorf("addr: %s field [%d,%d) outside the %d-bit physical space",
				f.name, f.field.Offset, f.field.Offset+f.field.Width, Bits)
		}
		mask := f.field.Mask()
		if covered&mask != 0 {
			return nil, fmt.Errorf("addr: %s field [%d,%d) overlaps another field",
				f.name, f.field.Offset, f.field.Offset+f.field.Width)
		}
		covered |= mask
	}
	// Collect the uncovered bits as maximal runs so Rest compaction walks a
	// handful of fields instead of 48 single bits.
	for bit := uint(0); bit < Bits; {
		if covered&(uint64(1)<<bit) != 0 {
			bit++
			continue
		}
		start := bit
		for bit < Bits && covered&(uint64(1)<<bit) == 0 {
			bit++
		}
		m.rest = append(m.rest, BitField{Width: bit - start, Offset: start})
	}
	return m, nil
}

// RestWidth returns how many address bits no field covers.
func (m *Mapping) RestWidth() uint {
	var w uint
	for _, f := range m.rest {
		w += f.Width
	}
	return w
}

// Decode splits address a (only the low 48 bits are considered) into its
// coordinates. Decode and Encode are exact inverses.
func (m *Mapping) Decode(a uint64) Coord {
	a &= Mask
	c := Coord{
		Channel: m.Channel.Value(a),
		Rank:    m.Rank.Value(a),
		Bank:    m.Bank.Value(a),
		Row:     m.Row.Value(a),
		Column:  m.Column.Value(a),
	}
	var shift uint
	for _, f := range m.rest {
		c.Rest |= f.Value(a) << shift
		shift += f.Width
	}
	return c
}

// Encode reassembles the address from its coordinates. Coordinate bits
// beyond their field width are dropped, so Encode(Decode(a)) == a&Mask for
// every address and Decode(Encode(c)) == c for every in-range coordinate.
func (m *Mapping) Encode(c Coord) uint64 {
	a := m.Channel.Place(c.Channel) |
		m.Rank.Place(c.Rank) |
		m.Bank.Place(c.Bank) |
		m.Row.Place(c.Row) |
		m.Column.Place(c.Column)
	var shift uint
	for _, f := range m.rest {
		a |= f.Place(c.Rest >> shift)
		shift += f.Width
	}
	return a
}

// ChannelOf returns the decoded channel index of address a.
func (m *Mapping) ChannelOf(a uint64) int { return int(m.Channel.Value(a & Mask)) }

// Interleave is the hub's routing specialization of a Mapping: channel bits
// of width log2(channels) sit at offset log2(granularity), addresses stripe
// across channels in granularity-sized units, and removing the channel bits
// compacts an address into a per-channel local space. All three operations
// are a few shifts — no loops, no allocation — so they can sit on the
// per-record hot path.
type Interleave struct {
	shift uint // log2(granularity)
	width uint // log2(channels)
}

// NewInterleave builds the routing mapping for a power-of-two channel count
// interleaved at a power-of-two granularity.
func NewInterleave(channels int, granularity uint64) (Interleave, error) {
	if channels <= 0 || channels&(channels-1) != 0 {
		return Interleave{}, fmt.Errorf("addr: channel count %d must be a positive power of two", channels)
	}
	if granularity == 0 || granularity&(granularity-1) != 0 {
		return Interleave{}, fmt.Errorf("addr: interleave granularity %d must be a positive power of two", granularity)
	}
	iv := Interleave{shift: uint(bits.Len64(granularity) - 1), width: uint(bits.Len64(uint64(channels)) - 1)}
	if iv.shift+iv.width > Bits {
		return Interleave{}, fmt.Errorf("addr: channel field [%d,%d) outside the %d-bit physical space",
			iv.shift, iv.shift+iv.width, Bits)
	}
	return iv, nil
}

// Channels returns the channel count.
func (iv Interleave) Channels() int { return 1 << iv.width }

// Granularity returns the interleave unit in bytes.
func (iv Interleave) Granularity() uint64 { return uint64(1) << iv.shift }

// Mapping returns the equivalent full bit-field mapping: the channel field
// at the interleave position, the intra-unit offset as Column, and the unit
// index above the channel bits as Row.
func (iv Interleave) Mapping() *Mapping {
	m, err := NewMapping(
		BitField{Width: iv.width, Offset: iv.shift},
		BitField{}, BitField{},
		BitField{Width: Bits - iv.shift - iv.width, Offset: iv.shift + iv.width},
		BitField{Width: iv.shift, Offset: 0},
	)
	if err != nil {
		panic(err) // unreachable: NewInterleave validated the layout
	}
	return m
}

// ChannelOf returns the channel address a stripes to.
func (iv Interleave) ChannelOf(a uint64) int {
	return int((a >> iv.shift) & ((uint64(1) << iv.width) - 1))
}

// Local compacts address a into its channel's local space by removing the
// channel bits: bits below the channel field keep their position, bits
// above it shift down by the field width.
func (iv Interleave) Local(a uint64) uint64 {
	a &= Mask
	low := a & ((uint64(1) << iv.shift) - 1)
	return low | (a>>(iv.shift+iv.width))<<iv.shift
}

// Global is the inverse of (ChannelOf, Local): it re-inserts the channel
// bits into a local address.
func (iv Interleave) Global(ch int, local uint64) uint64 {
	low := local & ((uint64(1) << iv.shift) - 1)
	return low | uint64(ch)<<iv.shift | (local>>iv.shift)<<(iv.shift+iv.width)
}
