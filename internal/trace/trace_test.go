package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func sample() []Record {
	return []Record{
		{Cycle: 1, Addr: 0x1000, CPU: 0, Write: false},
		{Cycle: 5, Addr: 0xdeadbeef, CPU: 3, Write: true},
		{Cycle: 9, Addr: 0xffff_ffff_ffff, CPU: 1, Write: false},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sample() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Fatalf("count = %d", w.Count())
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d records", len(got))
	}
	for i, want := range sample() {
		if got[i] != want {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want)
		}
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(sample()[0])
	w.Flush()
	raw := buf.Bytes()[:buf.Len()-3] // chop mid-record
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(r, 0); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated record: err = %v, want explicit error", err)
	}
}

func TestSliceSourceReset(t *testing.T) {
	s := NewSliceSource(sample())
	Collect(s, 0)
	var b Batch
	b.Resize(1)
	if _, err := s.NextBatch(&b); !errors.Is(err, io.EOF) {
		t.Fatal("drained source should EOF")
	}
	s.Reset()
	got, _ := Collect(s, 0)
	if len(got) != 3 {
		t.Fatal("reset did not rewind")
	}
}

func TestLimit(t *testing.T) {
	got, err := Collect(NewLimit(NewSliceSource(sample()), 2), 0)
	if err != nil || len(got) != 2 {
		t.Fatalf("limit: %d records, %v", len(got), err)
	}
}

func TestCollectMax(t *testing.T) {
	got, _ := Collect(NewSliceSource(sample()), 1)
	if len(got) != 1 {
		t.Fatalf("collect max: %d", len(got))
	}
}

// Property: binary round-trip preserves arbitrary records (addresses
// masked to the encodable range).
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(cycle, a uint64, cpu uint8, wr bool) bool {
		rec := Record{Cycle: cycle, Addr: a, CPU: cpu, Write: wr}
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		w.Write(rec)
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := Collect(r, 0)
		return err == nil && len(got) == 1 && got[0] == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeBasics(t *testing.T) {
	recs := []Record{
		{Cycle: 0, Addr: 0, Write: false},
		{Cycle: 10, Addr: 4096, Write: true},
		{Cycle: 20, Addr: 0, Write: false},
		{Cycle: 30, Addr: 8192, Write: true},
	}
	a, err := Analyze(NewSliceSource(recs), 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if a.Records != 4 || a.Writes != 2 {
		t.Fatalf("records/writes = %d/%d", a.Records, a.Writes)
	}
	if a.Footprint != 3*4096 {
		t.Fatalf("footprint = %d, want 3 blocks", a.Footprint)
	}
	if len(a.Windows) != 2 {
		t.Fatalf("%d windows, want 2", len(a.Windows))
	}
	if a.Windows[0].UniqueHot != 2 || a.Windows[0].NewBlocks != 2 {
		t.Fatalf("window 0: %+v", a.Windows[0])
	}
	// Window 1 re-touches block 0 (not new) and touches block 2 (new).
	if a.Windows[1].UniqueHot != 2 || a.Windows[1].NewBlocks != 1 {
		t.Fatalf("window 1: %+v", a.Windows[1])
	}
	if a.WriteShare() != 0.5 {
		t.Fatalf("write share = %f", a.WriteShare())
	}
	if a.MeanGap != 10 {
		t.Fatalf("mean gap = %f", a.MeanGap)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze(NewSliceSource(nil), 0, 4096); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := Analyze(NewSliceSource(nil), 10, 100); err == nil {
		t.Fatal("non-power-of-two block accepted")
	}
	a, err := Analyze(NewSliceSource(nil), 10, 4096)
	if err != nil || a.Records != 0 || len(a.Windows) != 0 {
		t.Fatalf("empty trace analysis: %+v, %v", a, err)
	}
}
