package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sort"
)

// Packed is a compressed in-memory trace: records are grouped into chunks
// of up to PackedChunkRecords, and each chunk bit-packs its columns at the
// minimum widths that cover the chunk — cycles as deltas from the previous
// record, addresses as shifted offsets from the chunk's minimum address,
// CPUs and the write flag as narrow integers. The paper's sweep drivers
// replay the same trace across dozens of configurations, so the packed
// form is built once per workload and decoded chunk-at-a-time into a
// caller-owned Batch with zero allocations on the decode path.
//
// Typical traces from the built-in generators pack to ~5–6 bytes/record
// against 24 bytes/record for []Record.
type Packed struct {
	chunks []packedChunk
	n      uint64
}

// PackedChunkRecords is the maximum (and, for builder output, the usual)
// number of records per packed chunk. It matches the run loop's cancel
// stride so a decoded chunk is one run-loop batch.
const PackedChunkRecords = 4096

// PackedMagic is the 4-byte magic that opens the packed container format;
// external tools use it to tell packed files from the per-record binary
// format.
const PackedMagic = "HMPK"

// maxChunkRecords bounds the per-chunk record count accepted from
// untrusted files, limiting what a corrupt header can make ReadPacked
// allocate.
const maxChunkRecords = 1 << 20

type packedChunk struct {
	start     uint64 // absolute index of the chunk's first record
	count     uint32
	baseCycle uint64 // cycle of the first record
	baseAddr  uint64 // minimum address in the chunk
	addrShift uint8  // trailing zero bits common to all address offsets
	cycleBits uint8  // width of each cycle delta (0..64)
	addrBits  uint8  // width of each shifted address offset (0..64)
	cpuBits   uint8  // width of each CPU id (0..8)
	writeBits uint8  // 0 when the whole chunk is reads, else 1
	data      []byte // bit-packed columns; padded for unaligned 64-bit loads
}

// payloadPad is the in-memory slack appended to each chunk payload so the
// bit readers/writers can issue unaligned 64-bit loads and stores at the
// tail without bounds failures. It is not written to files.
const payloadPad = 8

// payloadLen returns the on-disk payload size in bytes (without padding).
func (c *packedChunk) payloadLen() uint64 {
	bits := uint64(c.count) * uint64(c.cycleBits+c.addrBits+c.cpuBits+c.writeBits)
	return (bits + 7) / 8
}

// putBits writes the low width bits of v at bit offset bitoff. The buffer
// must be zeroed past the write cursor and padded by payloadPad bytes.
func putBits(buf []byte, bitoff uint64, width uint8, v uint64) {
	if width == 0 {
		return
	}
	if width < 64 {
		v &= 1<<width - 1
	}
	off, sh := bitoff>>3, bitoff&7
	w := binary.LittleEndian.Uint64(buf[off:]) | v<<sh
	binary.LittleEndian.PutUint64(buf[off:], w)
	if sh+uint64(width) > 64 {
		buf[off+8] |= byte(v >> (64 - sh))
	}
}

// getBits reads width bits at bit offset bitoff. The buffer must be padded
// by payloadPad bytes past the last payload byte.
func getBits(buf []byte, bitoff uint64, width uint8) uint64 {
	if width == 0 {
		return 0
	}
	v := bitsAt(buf, bitoff)
	if sh := bitoff & 7; sh+uint64(width) > 64 {
		v |= uint64(buf[bitoff>>3+8]) << (64 - sh)
	}
	if width < 64 {
		v &= 1<<width - 1
	}
	return v
}

// bitsAt returns the bits of buf from bit offset bitoff on, one unaligned
// 64-bit load shifted down: at least the low 57 bits are the buffer's. The
// buffer must be padded by payloadPad bytes past the last payload byte.
func bitsAt(buf []byte, bitoff uint64) uint64 {
	return binary.LittleEndian.Uint64(buf[bitoff>>3:]) >> (bitoff & 7)
}

// maxLoadBits is the widest value one bitsAt load holds at any bit offset.
const maxLoadBits = 56

// packChunk encodes the first n records of b into a chunk. Cycle deltas
// use wrapping arithmetic, so even non-monotone cycle sequences round-trip
// exactly (a backwards step just costs a 64-bit delta column).
func packChunk(b *Batch, n int) packedChunk {
	c := packedChunk{count: uint32(n), baseCycle: b.Cycle[0]}
	var maxDelta uint64
	prev := c.baseCycle
	for _, cyc := range b.Cycle[:n] {
		if d := cyc - prev; d > maxDelta {
			maxDelta = d
		}
		prev = cyc
	}
	c.cycleBits = uint8(bits.Len64(maxDelta))

	c.baseAddr = b.Addr[0]
	for _, a := range b.Addr[1:n] {
		if a < c.baseAddr {
			c.baseAddr = a
		}
	}
	var orOff, maxOff uint64
	for _, a := range b.Addr[:n] {
		off := a - c.baseAddr
		orOff |= off
		if off > maxOff {
			maxOff = off
		}
	}
	if orOff != 0 {
		c.addrShift = uint8(bits.TrailingZeros64(orOff))
	}
	c.addrBits = uint8(bits.Len64(maxOff >> c.addrShift))

	var maxCPU uint8
	for _, cpu := range b.CPU[:n] {
		if cpu > maxCPU {
			maxCPU = cpu
		}
	}
	c.cpuBits = uint8(bits.Len8(maxCPU))
	for _, w := range b.Write[:n] {
		if w {
			c.writeBits = 1
			break
		}
	}

	c.data = make([]byte, c.payloadLen()+payloadPad)
	bitoff := uint64(0)
	prev = c.baseCycle
	for _, cyc := range b.Cycle[:n] {
		putBits(c.data, bitoff, c.cycleBits, cyc-prev)
		prev = cyc
		bitoff += uint64(c.cycleBits)
	}
	for _, a := range b.Addr[:n] {
		putBits(c.data, bitoff, c.addrBits, (a-c.baseAddr)>>c.addrShift)
		bitoff += uint64(c.addrBits)
	}
	for _, cpu := range b.CPU[:n] {
		putBits(c.data, bitoff, c.cpuBits, uint64(cpu))
		bitoff += uint64(c.cpuBits)
	}
	if c.writeBits != 0 {
		for _, w := range b.Write[:n] {
			if w {
				putBits(c.data, bitoff, 1, 1)
			}
			bitoff++
		}
	}
	return c
}

// decode expands the chunk into b from index at on; b must hold at least
// at plus the chunk's record count. It allocates nothing.
//
// Each column is read by a loop for its width: one unaligned load per value
// up to maxLoadBits wide, getBits above that, and nothing for a CPU or write
// column of zero width.
func (c *packedChunk) decode(b *Batch, at int) {
	n := int(c.count)
	data := c.data
	bitoff := uint64(0)

	cycles := b.Cycle[at : at+n]
	w := uint64(c.cycleBits)
	cyc := c.baseCycle
	if w <= maxLoadBits {
		mask := uint64(1)<<w - 1
		for k := range cycles {
			cyc += bitsAt(data, bitoff) & mask
			cycles[k] = cyc
			bitoff += w
		}
	} else {
		for k := range cycles {
			cyc += getBits(data, bitoff, c.cycleBits)
			cycles[k] = cyc
			bitoff += w
		}
	}

	addrs := b.Addr[at : at+n]
	w = uint64(c.addrBits)
	if w <= maxLoadBits {
		mask := uint64(1)<<w - 1
		for k := range addrs {
			addrs[k] = c.baseAddr + (bitsAt(data, bitoff)&mask)<<c.addrShift
			bitoff += w
		}
	} else {
		for k := range addrs {
			addrs[k] = c.baseAddr + getBits(data, bitoff, c.addrBits)<<c.addrShift
			bitoff += w
		}
	}

	cpus := b.CPU[at : at+n]
	if w = uint64(c.cpuBits); w == 0 {
		clear(cpus)
	} else {
		mask := uint64(1)<<w - 1
		for k := range cpus {
			cpus[k] = uint8(bitsAt(data, bitoff) & mask)
			bitoff += w
		}
	}

	writes := b.Write[at : at+n]
	if c.writeBits == 0 {
		clear(writes)
	} else {
		for k := range writes {
			writes[k] = bitsAt(data, bitoff)&1 != 0
			bitoff++
		}
	}
}

// NumRecords returns the number of records in the packed trace.
func (p *Packed) NumRecords() uint64 { return p.n }

// EncodedBytes returns the packed size in bytes as written by WriteTo
// (headers included); compare against 24×NumRecords for the in-memory
// []Record footprint.
func (p *Packed) EncodedBytes() uint64 {
	total := uint64(4 + 8 + 4)
	for i := range p.chunks {
		total += chunkHeaderSize + p.chunks[i].payloadLen()
	}
	return total
}

// PackedBuilder accumulates records and packs them into chunks.
type PackedBuilder struct {
	p   *Packed
	buf Batch
	n   int // pending records in buf
}

// NewPackedBuilder returns an empty builder.
func NewPackedBuilder() *PackedBuilder {
	pb := &PackedBuilder{p: &Packed{}}
	pb.buf.Resize(PackedChunkRecords)
	return pb
}

// Count returns the number of records appended so far.
func (pb *PackedBuilder) Count() uint64 { return pb.p.n + uint64(pb.n) }

// AppendBatch adds the first k records of b.
func (pb *PackedBuilder) AppendBatch(b *Batch, k int) {
	done := 0
	for done < k {
		take := PackedChunkRecords - pb.n
		if rem := k - done; rem < take {
			take = rem
		}
		pb.buf.copyFrom(b, pb.n, done, take)
		pb.n += take
		done += take
		if pb.n == PackedChunkRecords {
			pb.flush()
		}
	}
}

func (pb *PackedBuilder) flush() {
	if pb.n == 0 {
		return
	}
	c := packChunk(&pb.buf, pb.n)
	c.start = pb.p.n
	pb.p.chunks = append(pb.p.chunks, c)
	pb.p.n += uint64(pb.n)
	pb.n = 0
}

// Finish flushes the pending partial chunk and returns the packed trace.
// The builder must not be used afterwards.
func (pb *PackedBuilder) Finish() *Packed {
	pb.flush()
	return pb.p
}

// Pack drains src into a packed trace, stopping after max records when
// max > 0 (or at EOF, whichever comes first).
func Pack(src Source, max uint64) (*Packed, error) {
	pb := NewPackedBuilder()
	var b Batch
	for max == 0 || pb.Count() < max {
		want := PackedChunkRecords
		if max > 0 {
			if rem := max - pb.Count(); rem < uint64(want) {
				want = int(rem)
			}
		}
		b.Resize(want)
		k, err := src.NextBatch(&b)
		if k > 0 {
			pb.AppendBatch(&b, k)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if k == 0 {
			return nil, fmt.Errorf("trace: pack: source returned no progress: %w", io.ErrNoProgress)
		}
	}
	return pb.Finish(), nil
}

// PackRecords packs a record slice.
func PackRecords(recs []Record) *Packed {
	p, err := Pack(NewSliceSource(recs), 0)
	if err != nil { // SliceSource cannot fail
		panic(err)
	}
	return p
}

// PackedSource replays a packed trace, decoding one chunk at a time. It
// implements Source and Positioner (random access via SkipTo, so packed
// replays checkpoint and resume like slice-backed ones), and keeps a
// per-record Next for callers that read one record at a time.
type PackedSource struct {
	p *Packed
	// buf holds chunk ci decoded, for reads that take part of a chunk. A
	// chunk NextBatch decodes straight into the caller's batch leaves buf
	// empty; chunks are never empty, so an empty buf holds no chunk.
	buf Batch
	ci  int    // index of the chunk decoded last; -1 before the first
	bi  int    // cursor within buf
	pos uint64 // absolute index of the next record to yield
}

// NewPackedSource returns a source positioned at the first record.
func NewPackedSource(p *Packed) *PackedSource {
	return &PackedSource{p: p, ci: -1}
}

func (s *PackedSource) load() {
	c := &s.p.chunks[s.ci]
	s.buf.Resize(int(c.count))
	c.decode(&s.buf, 0)
	s.bi = 0
}

// Next returns the next record, or io.EOF after the last one.
func (s *PackedSource) Next() (Record, error) {
	if s.bi >= s.buf.Len() {
		if s.ci+1 >= len(s.p.chunks) {
			return Record{}, io.EOF
		}
		s.ci++
		s.load()
	}
	r := s.buf.Record(s.bi)
	s.bi++
	s.pos++
	return r, nil
}

// NextBatch implements Source. A whole chunk that fits in what is left of
// b is decoded straight into b; the rest of a chunk goes through the
// source's own buffer and is copied. The run loop's batches line up with
// chunks, so it takes the first path.
func (s *PackedSource) NextBatch(b *Batch) (int, error) {
	want := b.Len()
	n := 0
	for n < want {
		if s.bi >= s.buf.Len() {
			if s.ci+1 >= len(s.p.chunks) {
				break
			}
			s.ci++
			if c := &s.p.chunks[s.ci]; int(c.count) <= want-n {
				c.decode(b, n)
				s.buf.Resize(0)
				s.bi = 0
				n += int(c.count)
				continue
			}
			s.load()
		}
		take := want - n
		if rem := s.buf.Len() - s.bi; rem < take {
			take = rem
		}
		b.copyFrom(&s.buf, n, s.bi, take)
		n += take
		s.bi += take
	}
	s.pos += uint64(n)
	if n == 0 && want > 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Position implements Positioner.
func (s *PackedSource) Position() uint64 { return s.pos }

// SkipTo implements Positioner: packed sources seek in both directions
// (a seek decodes at most one chunk).
func (s *PackedSource) SkipTo(n uint64) error {
	if n > s.p.n {
		return fmt.Errorf("trace: skip to record %d past end of %d-record trace", n, s.p.n)
	}
	if len(s.p.chunks) == 0 { // n must be 0
		s.pos = 0
		return nil
	}
	ci := sort.Search(len(s.p.chunks), func(i int) bool { return s.p.chunks[i].start > n }) - 1
	if n == s.p.n {
		// One past the last record: park the cursor at the end of the
		// final chunk so the next read reports EOF.
		ci = len(s.p.chunks) - 1
	}
	if ci != s.ci || s.buf.Len() == 0 {
		// Decode the chunk unless buf holds it: a chunk decoded straight
		// into a caller's batch left buf empty.
		s.ci = ci
		s.load()
	}
	s.bi = int(n - s.p.chunks[ci].start)
	s.pos = n
	return nil
}

// Reset rewinds to the first record.
func (s *PackedSource) Reset() {
	if err := s.SkipTo(0); err != nil { // cannot fail for 0
		panic(err)
	}
}

// chunkHeaderSize is the on-disk per-chunk header: count u32, baseCycle
// u64, baseAddr u64, then addrShift/cycleBits/addrBits/cpuBits/writeBits
// as single bytes. The payload length is derived from count and the
// widths, so it is not stored.
const chunkHeaderSize = 4 + 8 + 8 + 5

// WriteTo writes the packed trace in the HMPK container format:
// magic, total record count (u64), chunk count (u32), then each chunk's
// header followed by its payload. All integers are little-endian.
func (p *Packed) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	put := func(b []byte) error {
		n, err := bw.Write(b)
		written += int64(n)
		return err
	}
	var hdr [chunkHeaderSize]byte
	if err := put([]byte(PackedMagic)); err != nil {
		return written, err
	}
	binary.LittleEndian.PutUint64(hdr[:8], p.n)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(p.chunks)))
	if err := put(hdr[:12]); err != nil {
		return written, err
	}
	for i := range p.chunks {
		c := &p.chunks[i]
		binary.LittleEndian.PutUint32(hdr[0:4], c.count)
		binary.LittleEndian.PutUint64(hdr[4:12], c.baseCycle)
		binary.LittleEndian.PutUint64(hdr[12:20], c.baseAddr)
		hdr[20] = c.addrShift
		hdr[21] = c.cycleBits
		hdr[22] = c.addrBits
		hdr[23] = c.cpuBits
		hdr[24] = c.writeBits
		if err := put(hdr[:]); err != nil {
			return written, err
		}
		if err := put(c.data[:c.payloadLen()]); err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// ReadPacked parses a packed trace from r, validating every header field
// so corrupt or truncated input is rejected rather than decoded into
// garbage. The whole trace is loaded into memory (packed, so ~4–5× smaller
// than the records it holds).
func ReadPacked(r io.Reader) (*Packed, error) {
	br := bufio.NewReader(r)
	var hdr [chunkHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:4]); err != nil {
		return nil, fmt.Errorf("trace: packed header: %w", err)
	}
	if string(hdr[:4]) != PackedMagic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:4])
	}
	if _, err := io.ReadFull(br, hdr[:12]); err != nil {
		return nil, fmt.Errorf("trace: packed header: %w", err)
	}
	p := &Packed{n: binary.LittleEndian.Uint64(hdr[:8])}
	nchunks := binary.LittleEndian.Uint32(hdr[8:12])
	var start uint64
	for i := uint32(0); i < nchunks; i++ {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil, fmt.Errorf("trace: packed chunk %d header: %w", i, err)
		}
		c := packedChunk{
			start:     start,
			count:     binary.LittleEndian.Uint32(hdr[0:4]),
			baseCycle: binary.LittleEndian.Uint64(hdr[4:12]),
			baseAddr:  binary.LittleEndian.Uint64(hdr[12:20]),
			addrShift: hdr[20],
			cycleBits: hdr[21],
			addrBits:  hdr[22],
			cpuBits:   hdr[23],
			writeBits: hdr[24],
		}
		switch {
		case c.count == 0 || c.count > maxChunkRecords:
			return nil, fmt.Errorf("trace: packed chunk %d: bad record count %d", i, c.count)
		case c.cycleBits > 64 || c.addrBits > 64 || c.cpuBits > 8 || c.writeBits > 1:
			return nil, fmt.Errorf("trace: packed chunk %d: bad column widths %d/%d/%d/%d",
				i, c.cycleBits, c.addrBits, c.cpuBits, c.writeBits)
		case c.addrShift > 63 || (c.addrBits > 0 && uint(c.addrBits)+uint(c.addrShift) > 64):
			return nil, fmt.Errorf("trace: packed chunk %d: bad address shift %d for %d-bit offsets",
				i, c.addrShift, c.addrBits)
		}
		plen := c.payloadLen()
		c.data = make([]byte, plen+payloadPad)
		if _, err := io.ReadFull(br, c.data[:plen]); err != nil {
			return nil, fmt.Errorf("trace: packed chunk %d payload: %w", i, err)
		}
		start += uint64(c.count)
		p.chunks = append(p.chunks, c)
	}
	if start != p.n {
		return nil, fmt.Errorf("trace: packed trace claims %d records but chunks hold %d", p.n, start)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err != nil {
			return nil, fmt.Errorf("trace: after packed trace: %w", err)
		}
		return nil, fmt.Errorf("trace: trailing data after packed trace")
	}
	return p, nil
}
