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
