package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// randomRecords builds a trace with the statistics of a real workload
// stream (mostly-ascending cycles, clustered addresses) plus adversarial
// outliers (cycle wrap, huge addresses) so the packed form's wrapping
// delta arithmetic is exercised.
func randomRecords(t *testing.T, n int, seed int64) []Record {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	cycle := uint64(0)
	for i := range recs {
		switch rng.Intn(20) {
		case 0:
			cycle -= uint64(rng.Intn(1000)) // non-monotone step backwards
		default:
			cycle += uint64(rng.Intn(200))
		}
		addr := uint64(rng.Intn(1<<28)) &^ 63
		if rng.Intn(50) == 0 {
			addr = rng.Uint64() // occasional far outlier
		}
		recs[i] = Record{
			Cycle: cycle,
			Addr:  addr,
			CPU:   uint8(rng.Intn(8)),
			Write: rng.Intn(4) == 0,
		}
	}
	return recs
}

func packedEqual(t *testing.T, want []Record, p *Packed) {
	t.Helper()
	if p.NumRecords() != uint64(len(want)) {
		t.Fatalf("packed holds %d records, want %d", p.NumRecords(), len(want))
	}
	got, err := Collect(NewPackedSource(p), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestPackedRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, PackedChunkRecords, PackedChunkRecords + 1, 3*PackedChunkRecords + 17} {
		recs := randomRecords(t, n, int64(n)+1)
		packedEqual(t, recs, PackRecords(recs))
	}
}

func TestPackedRoundTripEdgeValues(t *testing.T) {
	recs := []Record{
		{Cycle: 0, Addr: 0, CPU: 0, Write: false},
		{Cycle: ^uint64(0), Addr: ^uint64(0), CPU: 255, Write: true},
		{Cycle: 0, Addr: 1 << 63, CPU: 7, Write: false}, // cycle wraps back down
		{Cycle: 5, Addr: 0, CPU: 0, Write: true},
	}
	packedEqual(t, recs, PackRecords(recs))
}

func TestPackedFileRoundTrip(t *testing.T) {
	recs := randomRecords(t, 2*PackedChunkRecords+99, 7)
	p := PackRecords(recs)
	var buf bytes.Buffer
	written, err := p.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(written) != p.EncodedBytes() {
		t.Fatalf("WriteTo wrote %d bytes, EncodedBytes says %d", written, p.EncodedBytes())
	}
	back, err := ReadPacked(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	packedEqual(t, recs, back)
}

func TestPackedSourcePositioner(t *testing.T) {
	recs := randomRecords(t, 2*PackedChunkRecords+50, 11)
	p := PackRecords(recs)
	src := NewPackedSource(p)
	var _ Positioner = src
	var _ Source = src

	// Forward, backward, and boundary seeks all land exactly.
	for _, pos := range []uint64{0, 1, 100, PackedChunkRecords - 1, PackedChunkRecords, PackedChunkRecords + 1, uint64(len(recs)) - 1, 5, uint64(len(recs))} {
		if err := src.SkipTo(pos); err != nil {
			t.Fatalf("SkipTo(%d): %v", pos, err)
		}
		if got := src.Position(); got != pos {
			t.Fatalf("Position after SkipTo(%d) = %d", pos, got)
		}
		if pos == uint64(len(recs)) {
			if _, err := src.Next(); err != io.EOF {
				t.Fatalf("Next at end = %v, want EOF", err)
			}
			continue
		}
		r, err := src.Next()
		if err != nil {
			t.Fatalf("Next after SkipTo(%d): %v", pos, err)
		}
		if r != recs[pos] {
			t.Fatalf("record at %d = %+v, want %+v", pos, r, recs[pos])
		}
		if got := src.Position(); got != pos+1 {
			t.Fatalf("Position after Next = %d, want %d", got, pos+1)
		}
	}
	if err := src.SkipTo(uint64(len(recs)) + 1); err == nil {
		t.Fatal("SkipTo past end accepted")
	}
	src.Reset()
	if src.Position() != 0 {
		t.Fatalf("Position after Reset = %d", src.Position())
	}
	if r, err := src.Next(); err != nil || r != recs[0] {
		t.Fatalf("Next after Reset = %+v, %v", r, err)
	}
}

func TestPackedSourceNextBatchOddSizes(t *testing.T) {
	recs := randomRecords(t, PackedChunkRecords+777, 13)
	p := PackRecords(recs)
	for _, size := range []int{1, 7, 100, PackedChunkRecords, PackedChunkRecords * 2} {
		src := NewPackedSource(p)
		var got []Record
		var b Batch
		for {
			b.Resize(size)
			k, err := src.NextBatch(&b)
			for i := 0; i < k; i++ {
				got = append(got, b.Record(i))
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != len(recs) {
			t.Fatalf("size %d: got %d records, want %d", size, len(got), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("size %d: record %d = %+v, want %+v", size, i, got[i], recs[i])
			}
		}
	}
}

func TestReadPackedRejectsCorruptInput(t *testing.T) {
	recs := randomRecords(t, PackedChunkRecords+12, 17)
	var buf bytes.Buffer
	if _, err := PackRecords(recs).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("HMTR"), good[4:]...),
		"short head": good[:10],
		"truncated":  good[:len(good)-5],
		"trailing":   append(append([]byte{}, good...), 0),
	}
	// Record-count mismatch: total claims one more record than chunks hold.
	mismatch := append([]byte{}, good...)
	mismatch[4]++
	cases["count mismatch"] = mismatch
	// Bad column width in the first chunk header (cycleBits > 64).
	badWidth := append([]byte{}, good...)
	badWidth[4+8+4+4+8+8+1] = 65
	cases["bad width"] = badWidth
	// Zero-record chunk.
	zeroCount := append([]byte{}, good...)
	copy(zeroCount[4+8+4:], []byte{0, 0, 0, 0})
	cases["zero-count chunk"] = zeroCount

	for name, data := range cases {
		if _, err := ReadPacked(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corrupt input accepted", name)
		}
	}
	if _, err := ReadPacked(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine input rejected: %v", err)
	}
}

func TestPackNoProgressSource(t *testing.T) {
	if _, err := Pack(noProgressSource{}, 10); !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("Pack over a no-progress source = %v, want ErrNoProgress", err)
	}
}

// noProgressSource violates the Source contract by returning (0, nil).
type noProgressSource struct{}

func (noProgressSource) NextBatch(*Batch) (int, error) { return 0, nil }

// wideRecords builds n records whose chunks have columns 57 to 64 bits
// wide: cycles that step backwards (a wrapped 64-bit delta) or forwards by
// 2^56 or more, and addresses up to 2^60 apart. Chunk 1 is all reads on CPU 0, so
// its CPU and write columns are zero bits wide.
func wideRecords(n int) []Record {
	recs := make([]Record, n)
	cycle := uint64(1) << 62
	for i := range recs {
		c := i / PackedChunkRecords
		switch {
		case i%97 != 0:
			cycle += uint64(i % 50)
		case c%2 == 0:
			cycle -= 1000
		default:
			cycle += 1 << (55 + c)
		}
		r := Record{Cycle: cycle, Addr: uint64(i%(2*c+2))<<60 | uint64(i)}
		if c != 1 {
			r.CPU, r.Write = uint8(i%5), i%3 == 0
		}
		recs[i] = r
	}
	return recs
}

// TestPackedSourceInPlaceDecode reads wide chunks through NextBatch in
// chunk-sized batches, which decode each chunk straight into the batch,
// and in 1,000-record batches, which take parts of chunks through the
// source's own buffer. Then it seeks back into the chunk read last: after
// an in-place decode the buffer holds no chunk, so the seek must decode
// it again. Every record read must equal the one packed, and the records
// after the seek must equal a fresh source's.
func TestPackedSourceInPlaceDecode(t *testing.T) {
	recs := wideRecords(4*PackedChunkRecords + 123)
	p := PackRecords(recs)
	widths := map[uint8]bool{}
	for i := range p.chunks {
		c := &p.chunks[i]
		if c.cycleBits < 57 || c.addrBits < 57 {
			t.Fatalf("chunk %d: cycle and address columns %d and %d bits wide, want 57 to 64", i, c.cycleBits, c.addrBits)
		}
		widths[c.cycleBits], widths[c.addrBits] = true, true
	}
	if c := &p.chunks[1]; c.cpuBits != 0 || c.writeBits != 0 {
		t.Fatalf("chunk 1: CPU and write columns %d and %d bits wide, want 0", c.cpuBits, c.writeBits)
	}
	t.Logf("column widths %v", widths)

	read := func(src *PackedSource, size, from, upTo int) {
		t.Helper()
		var b Batch
		for i := from; i < upTo; {
			b.Resize(min(size, upTo-i))
			k, err := src.NextBatch(&b)
			if err != nil {
				t.Fatalf("batch %d at record %d: %v", size, i, err)
			}
			for j := range k {
				if got := b.Record(j); got != recs[i+j] {
					t.Fatalf("batch %d: record %d = %+v, want %+v", size, i+j, got, recs[i+j])
				}
			}
			i += k
			if pos := src.Position(); pos != uint64(i) {
				t.Fatalf("batch %d: Position %d after %d records", size, pos, i)
			}
		}
	}
	for _, size := range []int{PackedChunkRecords, 1000} {
		src := NewPackedSource(p)
		read(src, size, 0, 2*PackedChunkRecords)
		seek := PackedChunkRecords + 10 // into chunk 1, the chunk read last
		if err := src.SkipTo(uint64(seek)); err != nil {
			t.Fatal(err)
		}
		if pos := src.Position(); pos != uint64(seek) {
			t.Fatalf("batch %d: Position %d after SkipTo(%d)", size, pos, seek)
		}
		fresh := NewPackedSource(p)
		if err := fresh.SkipTo(uint64(seek)); err != nil {
			t.Fatal(err)
		}
		read(fresh, size, seek, len(recs))
		read(src, size, seek, len(recs))
		var b Batch
		b.Resize(size)
		if k, err := src.NextBatch(&b); k != 0 || err != io.EOF {
			t.Fatalf("batch %d: read past the end gave %d records, %v", size, k, err)
		}
	}
}
