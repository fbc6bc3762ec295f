package trace

import (
	"bytes"
	"io"
	"testing"

	"heteromem/internal/snap"
)

func positionTestRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Cycle: uint64(i * 10), Addr: uint64(i) << 6, CPU: uint8(i % 4), Write: i%3 == 0}
	}
	return recs
}

// sources builds one of each Positioner implementation over the same records.
func positionSources(t *testing.T, recs []Record) map[string]Positioner {
	t.Helper()
	var bin bytes.Buffer
	w, err := NewWriter(&bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Positioner{
		"slice":  NewSliceSource(recs),
		"binary": rd,
	}
}

// nextRecord reads one record through a one-record batch.
func nextRecord(src Source) (Record, error) {
	var b Batch
	b.Resize(1)
	k, err := src.NextBatch(&b)
	if k == 1 {
		return b.Record(0), nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return Record{}, err
}

func TestPositionerSkipTo(t *testing.T) {
	recs := positionTestRecords(20)
	for name, src := range positionSources(t, recs) {
		t.Run(name, func(t *testing.T) {
			if got := src.Position(); got != 0 {
				t.Fatalf("initial position = %d, want 0", got)
			}
			if err := src.SkipTo(0); err != nil {
				t.Fatalf("skip-to-zero: %v", err)
			}
			if err := src.SkipTo(7); err != nil {
				t.Fatalf("SkipTo(7): %v", err)
			}
			if got := src.Position(); got != 7 {
				t.Fatalf("position after skip = %d, want 7", got)
			}
			r, err := nextRecord(src)
			if err != nil {
				t.Fatalf("Next after skip: %v", err)
			}
			if r != recs[7] {
				t.Fatalf("record after skip = %+v, want %+v", r, recs[7])
			}
			if got := src.Position(); got != 8 {
				t.Fatalf("position after next = %d, want 8", got)
			}
			// Skipping to the exact record count parks the source at EOF.
			if err := src.SkipTo(uint64(len(recs))); err != nil {
				t.Fatalf("SkipTo(end): %v", err)
			}
			if _, err := nextRecord(src); err == nil {
				t.Fatal("Next at end should return EOF")
			}
		})
	}
}

func TestPositionerSkipPastEOF(t *testing.T) {
	recs := positionTestRecords(5)
	for name, src := range positionSources(t, recs) {
		t.Run(name, func(t *testing.T) {
			if err := src.SkipTo(uint64(len(recs)) + 1); err == nil {
				t.Fatal("skip past EOF should fail")
			}
		})
	}
}

func TestStreamingSkipBackward(t *testing.T) {
	recs := positionTestRecords(5)
	for name, src := range positionSources(t, recs) {
		if name == "slice" {
			// In-memory sources may rewind.
			if err := src.SkipTo(3); err != nil {
				t.Fatal(err)
			}
			if err := src.SkipTo(1); err != nil {
				t.Fatalf("slice rewind: %v", err)
			}
			continue
		}
		t.Run(name, func(t *testing.T) {
			if err := src.SkipTo(3); err != nil {
				t.Fatal(err)
			}
			if err := src.SkipTo(1); err == nil {
				t.Fatal("backward seek on a streaming source should fail")
			}
		})
	}
}

// snapSource is a Snapshotter test double: a counting source whose only
// state is how many records it has emitted.
type snapSource struct{ n uint64 }

func (s *snapSource) NextBatch(b *Batch) (int, error) {
	for i := 0; i < b.Len(); i++ {
		b.Set(i, Record{Cycle: s.n * 10, Addr: s.n << 6})
		s.n++
	}
	return b.Len(), nil
}
func (s *snapSource) Snap(st *snap.Stream) { st.U64(&s.n) }

// limitRoundTrip snapshots l after consuming k records and restores the
// snapshot into fresh, returning the next record from each.
func limitRoundTrip(t *testing.T, l, fresh *Limit, k int) (Record, Record) {
	t.Helper()
	for i := 0; i < k; i++ {
		if _, err := nextRecord(l); err != nil {
			t.Fatal(err)
		}
	}
	e := snap.NewEncoder()
	l.Snap(e.Section("limit"))
	data, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d, err := snap.NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Section("limit")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Snap(s); s.Err() != nil {
		t.Fatal(s.Err())
	}
	want, err := nextRecord(l)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nextRecord(fresh)
	if err != nil {
		t.Fatal(err)
	}
	return want, got
}

func TestLimitSnapshotSnapshotterSource(t *testing.T) {
	want, got := limitRoundTrip(t, NewLimit(&snapSource{}, 10), NewLimit(&snapSource{}, 10), 4)
	if want != got {
		t.Fatalf("restored Limit yielded %+v, want %+v", got, want)
	}
}

func TestLimitSnapshotPositionerSource(t *testing.T) {
	recs := positionTestRecords(12)
	want, got := limitRoundTrip(t, NewLimit(NewSliceSource(recs), 10), NewLimit(NewSliceSource(recs), 10), 4)
	if want != got {
		t.Fatalf("restored Limit yielded %+v, want %+v", got, want)
	}
}

func TestLimitSnapshotUnsupportedSource(t *testing.T) {
	// Embedding hides every method but NextBatch.
	l := NewLimit(struct{ Source }{NewSliceSource(nil)}, 10)
	e := snap.NewEncoder()
	l.Snap(e.Section("limit"))
	if _, err := e.Finish(); err == nil {
		t.Fatal("snapshotting a Limit over a non-checkpointable source should fail")
	}
}
