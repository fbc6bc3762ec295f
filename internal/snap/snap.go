// Package snap implements the simulator's checkpoint container — a
// versioned, CRC-checksummed, length-prefixed binary format — and the
// Stream through which every stateful component describes its state once,
// for both writing and reading.
//
// # Container layout
//
// A snapshot is a flat byte stream:
//
//	magic   "HMSN"                      4 bytes
//	version uint16 LE                   format version (Version)
//	flags   uint16 LE                   reserved, must be zero
//	section*                            one per named component
//	trailer nameLen=0 byte, then
//	        crc32 uint32 LE             IEEE CRC of every preceding byte
//
// Each section is:
//
//	nameLen uint8  (>= 1)
//	name    nameLen bytes
//	payLen  uint32 LE
//	payload payLen bytes
//	crc     uint32 LE                   IEEE CRC of the payload
//
// Section payloads are sequences of little-endian primitives written by
// the component that owns the section; the container does not interpret
// them. Decoding validates the magic, version, every section CRC, and the
// whole-file CRC before any payload is handed to a component, so a
// truncated or bit-flipped snapshot is rejected with ErrCorrupt (or a
// *VersionError for a version skew) before any state is touched.
//
// # One format description per component
//
// A component implements Snapshotter with a single Snap method that names
// each field once, in wire order. Encoder.Section hands it a writing
// Stream, on which every primitive appends the value its pointer holds;
// Decoder.Section hands it a reading Stream, on which the same calls
// overwrite the pointees. The method branches on Reading only where the
// two sides really differ: sparse lists, intrusive queues, and derived
// state rebuilt on restore. Every count read from a payload is bounded
// (Len, Shape, Sparse) before it sizes anything.
//
// A payload that passes its CRCs can still be semantically wrong. Readers
// reject it with an ErrCorrupt-wrapped error, but the components read
// before the inconsistency was found are already overwritten: a failed
// restore leaves its targets unusable, and callers discard them.
//
// # Error latching
//
// A Stream latches its first error, which surfaces once from Err (and
// from Encoder.Finish, which then returns no bytes). After it, every read
// is a cheap no-op that leaves its pointee untouched and Len returns 0.
// Components therefore describe their state linearly without per-call
// error plumbing.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Version is the current snapshot format version. Snapshots recording any
// other version are rejected with a *VersionError.
const Version uint16 = 1

var magic = [4]byte{'H', 'M', 'S', 'N'}

// ErrCorrupt is the sentinel wrapped by every decoding error: bad magic,
// truncation, CRC mismatch, malformed section framing, a component reading
// past its payload, or a payload a component rejects. Match with errors.Is.
var ErrCorrupt = errors.New("snap: corrupt snapshot")

// VersionError reports a snapshot written by a different format version.
type VersionError struct {
	Got, Want uint16
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snap: snapshot format version %d, want %d", e.Got, e.Want)
}

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Snapshotter is implemented by every component whose state participates
// in a checkpoint. Snap writes the state into a writing stream or restores
// it from a reading one; inconsistencies latch in the stream.
type Snapshotter interface {
	Snap(s *Stream)
}

// Stream is one section payload seen from either side: while writing, each
// primitive appends the value its pointer holds; while reading, it
// overwrites the pointee with the next value of the payload.
type Stream struct {
	reading bool
	name    string
	buf     []byte // writing: the payload so far; reading: the unread rest
	err     error
}

// Reading reports whether the stream restores state (true) or records it.
func (s *Stream) Reading() bool { return s.reading }

// Err returns the latched error, if any.
func (s *Stream) Err() error { return s.err }

// Fail latches err (the first one wins).
func (s *Stream) Fail(err error) {
	if s.err == nil && err != nil {
		s.err = err
	}
}

// Invalid latches a semantic validation failure found while restoring (a
// count that disagrees with the rebuilt structure, an enum out of range,
// ...). It wraps ErrCorrupt like the structural errors do.
func (s *Stream) Invalid(format string, args ...any) {
	s.Fail(corruptf("section %q: %s", s.name, fmt.Sprintf(format, args...)))
}

// take consumes n payload bytes, or latches a truncation error.
func (s *Stream) take(n int) []byte {
	if s.err != nil {
		return nil
	}
	if len(s.buf) < n {
		s.Invalid("read past end of payload")
		return nil
	}
	b := s.buf[:n]
	s.buf = s.buf[n:]
	return b
}

// U64 carries a little-endian uint64.
func (s *Stream) U64(v *uint64) {
	if !s.reading {
		s.buf = binary.LittleEndian.AppendUint64(s.buf, *v)
	} else if b := s.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// U32 carries a little-endian uint32.
func (s *Stream) U32(v *uint32) {
	if !s.reading {
		s.buf = binary.LittleEndian.AppendUint32(s.buf, *v)
	} else if b := s.take(4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	}
}

// U8 carries one byte.
func (s *Stream) U8(v *uint8) {
	if !s.reading {
		s.buf = append(s.buf, *v)
	} else if b := s.take(1); b != nil {
		*v = b[0]
	}
}

// Bool carries one byte, 0 or 1; reading any other byte is corrupt.
func (s *Stream) Bool(v *bool) {
	if !s.reading {
		b := uint8(0)
		if *v {
			b = 1
		}
		s.buf = append(s.buf, b)
		return
	}
	switch b := s.take(1); {
	case b == nil:
	case b[0] > 1:
		s.Invalid("invalid bool byte")
	default:
		*v = b[0] == 1
	}
}

// F64 carries a float64 as its IEEE-754 bit pattern.
func (s *Stream) F64(v *float64) {
	bits := math.Float64bits(*v)
	s.U64(&bits)
	if s.reading && s.err == nil {
		*v = math.Float64frombits(bits)
	}
}

// String carries a u32 length prefix followed by the raw bytes.
func (s *Stream) String(v *string) {
	n := s.Len(len(*v), 1)
	if !s.reading {
		s.buf = append(s.buf, *v...)
		return
	}
	if b := s.take(n); s.err == nil {
		*v = string(b)
	}
}

// Len carries an element count as a u32 and returns it. Writing, it records
// n. Reading, it returns the recorded count after bounding it by the
// payload left: with every element at least itemMin bytes on the wire, a
// count the remaining bytes cannot hold is corrupt, so a hostile count
// never sizes an allocation. It returns 0 after an error.
func (s *Stream) Len(n, itemMin int) int {
	if !s.reading {
		if n < 0 || n > math.MaxUint32 {
			s.Fail(fmt.Errorf("snap: section %q: count %d out of range", s.name, n))
			return 0
		}
		u := uint32(n)
		s.U32(&u)
		return n
	}
	var u uint32
	s.U32(&u)
	if s.err != nil {
		return 0
	}
	if int(u) > len(s.buf)/max(itemMin, 1) {
		s.Invalid("count %d exceeds remaining payload", u)
		return 0
	}
	return int(u)
}

// Shape carries a dimension the restore target already has — a slot,
// channel or level count fixed at construction — as a u32. Reading, the
// recorded value must equal n.
func (s *Stream) Shape(n int, what string) {
	got := uint32(n)
	s.U32(&got)
	if s.reading && s.err == nil && int(got) != n {
		s.Invalid("%s: target has %d, snapshot has %d", what, n, got)
	}
}

// Present carries whether an optional part exists and reports whether to
// carry it. The restore target was built from the same configuration, so
// the recorded flag must equal has.
func (s *Stream) Present(has bool, what string) bool {
	got := has
	s.Bool(&got)
	if got != has {
		s.Invalid("%s presence mismatch", what)
	}
	return has && s.err == nil
}

// Bools carries a fixed-length bool vector: its length (see Shape), then
// one byte per entry.
func (s *Stream) Bools(b []bool) {
	s.Shape(len(b), "bool vector")
	for i := range b {
		s.Bool(&b[i])
	}
}

// Int64 carries an integer field as a two's-complement int64.
func Int64[T ~int | ~int64](s *Stream, v *T) {
	u := uint64(*v)
	s.U64(&u)
	if s.reading && s.err == nil {
		*v = T(int64(u))
	}
}

// Uint32 carries a non-negative integer field as a u32.
func Uint32[T ~int | ~int32](s *Stream, v *T) {
	u := uint32(*v)
	s.U32(&u)
	if s.reading && s.err == nil {
		*v = T(u)
	}
}

// Sparse carries the entries of a dense array that differ from zero —
// their count, then each entry's index and value in ascending index order —
// so a mostly-default array costs what was touched, not its capacity.
// index and value name the wire form of an entry's two halves. Reading, a
// is reset to zero first, the count may not exceed len(a), and every index
// must fall inside a and appear once.
func Sparse[T comparable](s *Stream, what string, a []T, zero T, index func(*Stream, *int), value func(*Stream, *T)) {
	n := 0
	if !s.reading {
		for _, v := range a {
			if v != zero {
				n++
			}
		}
	}
	n = s.Len(n, 1)
	if n > len(a) {
		s.Invalid("%s list holds %d entries, array has %d", what, n, len(a))
		return
	}
	if s.reading {
		for i := range a {
			a[i] = zero
		}
	}
	i := -1 // the entry's index; writing, the last entry visited
	for range n {
		if !s.reading {
			for i++; a[i] == zero; i++ {
			}
		}
		index(s, &i)
		if s.reading {
			if s.err != nil {
				return
			}
			if i < 0 || i >= len(a) {
				s.Invalid("%s %d out of range (%d entries)", what, i, len(a))
				return
			}
			if a[i] != zero {
				s.Invalid("%s %d appears twice", what, i)
				return
			}
		}
		value(s, &a[i])
	}
}

// Encoder builds a snapshot. Open a section with Section, describe the
// component state through the stream it returns, then call Finish for the
// framed bytes. The zero value is not usable; use NewEncoder.
type Encoder struct {
	out  []byte
	cur  Stream
	open bool
	err  error
}

// NewEncoder returns an encoder with the container header written.
func NewEncoder() *Encoder {
	e := &Encoder{out: make([]byte, 0, 4096)}
	e.out = append(e.out, magic[:]...)
	e.out = binary.LittleEndian.AppendUint16(e.out, Version)
	e.out = binary.LittleEndian.AppendUint16(e.out, 0) // flags
	return e
}

func (e *Encoder) flushSection() {
	if !e.open {
		return
	}
	e.open = false
	if e.err == nil {
		e.err = e.cur.err
	}
	if e.err != nil {
		return
	}
	payload := e.cur.buf
	if len(payload) > math.MaxUint32 {
		e.err = fmt.Errorf("snap: section %q payload exceeds 4 GiB", e.cur.name)
		return
	}
	e.out = append(e.out, byte(len(e.cur.name)))
	e.out = append(e.out, e.cur.name...)
	e.out = binary.LittleEndian.AppendUint32(e.out, uint32(len(payload)))
	e.out = append(e.out, payload...)
	e.out = binary.LittleEndian.AppendUint32(e.out, crc32.ChecksumIEEE(payload))
}

// Section closes any open section and opens a new one named name (1..255
// bytes), returning the writing stream of its payload. The stream is valid
// until the next Section or Finish call.
func (e *Encoder) Section(name string) *Stream {
	e.flushSection()
	if e.err == nil && (len(name) == 0 || len(name) > 255) {
		e.err = fmt.Errorf("snap: invalid section name %q", name)
	}
	e.cur = Stream{name: name, buf: e.cur.buf[:0], err: e.err}
	e.open = true
	return &e.cur
}

// Finish closes the last section, appends the trailer and whole-file CRC,
// and returns the snapshot bytes, or the first latched error.
func (e *Encoder) Finish() ([]byte, error) {
	e.flushSection()
	if e.err != nil {
		return nil, e.err
	}
	e.out = append(e.out, 0) // trailer: nameLen 0
	e.out = binary.LittleEndian.AppendUint32(e.out, crc32.ChecksumIEEE(e.out))
	return e.out, nil
}

// Decoder reads a snapshot previously produced by an Encoder. NewDecoder
// fully validates the container framing and checksums; Section then hands
// out a named payload.
type Decoder struct {
	sections map[string][]byte
	order    []string
}

// NewDecoder validates the container (magic, version, framing, every
// section CRC, whole-file CRC) and indexes the sections. It returns
// ErrCorrupt-wrapped errors for structural damage and *VersionError for a
// format version skew.
func NewDecoder(data []byte) (*Decoder, error) {
	const header = 4 + 2 + 2
	const trailer = 1 + 4
	if len(data) < header+trailer {
		return nil, corruptf("short snapshot (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != magic {
		return nil, corruptf("bad magic %q", data[:4])
	}
	// Whole-file CRC first: it covers everything up to and including the
	// trailer's zero byte, so any damage (including to a section CRC
	// field itself) is caught before deeper parsing.
	fileCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(data[:len(data)-4]) != fileCRC {
		return nil, corruptf("file checksum mismatch")
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != Version {
		return nil, &VersionError{Got: v, Want: Version}
	}
	if f := binary.LittleEndian.Uint16(data[6:8]); f != 0 {
		return nil, corruptf("unknown flags %#x", f)
	}
	d := &Decoder{sections: make(map[string][]byte)}
	body := data[header : len(data)-4]
	for {
		if len(body) < 1 {
			return nil, corruptf("missing trailer")
		}
		nameLen := int(body[0])
		body = body[1:]
		if nameLen == 0 {
			if len(body) != 0 {
				return nil, corruptf("%d trailing bytes after trailer", len(body))
			}
			return d, nil
		}
		if len(body) < nameLen+4 {
			return nil, corruptf("truncated section header")
		}
		name := string(body[:nameLen])
		body = body[nameLen:]
		payLen := int(binary.LittleEndian.Uint32(body[:4]))
		body = body[4:]
		if len(body) < payLen+4 {
			return nil, corruptf("section %q truncated", name)
		}
		payload := body[:payLen]
		body = body[payLen:]
		crc := binary.LittleEndian.Uint32(body[:4])
		body = body[4:]
		if crc32.ChecksumIEEE(payload) != crc {
			return nil, corruptf("section %q checksum mismatch", name)
		}
		if _, dup := d.sections[name]; dup {
			return nil, corruptf("duplicate section %q", name)
		}
		d.sections[name] = payload
		d.order = append(d.order, name)
	}
}

// Sections returns the section names in file order.
func (d *Decoder) Sections() []string { return append([]string(nil), d.order...) }

// Section returns a reading stream over the named payload. A missing
// section is an ErrCorrupt-wrapped error.
func (d *Decoder) Section(name string) (*Stream, error) {
	p, ok := d.sections[name]
	if !ok {
		return nil, corruptf("missing section %q", name)
	}
	return &Stream{reading: true, name: name, buf: p}, nil
}
