package core

import (
	"errors"
	"testing"

	"heteromem/internal/snap"
)

// readBack writes one section through write and returns the reading stream
// over it.
func readBack(t *testing.T, write func(*snap.Stream)) *snap.Stream {
	t.Helper()
	e := snap.NewEncoder()
	write(e.Section("s"))
	blob, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d, err := snap.NewDecoder(blob)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Section("s")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRestoreRejectsOutOfRangeResident: a restored slot naming a page
// outside the page space is corrupt, not an index into the CAM rebuild —
// in the table and in the rollback snapshot of an in-flight swap alike.
func TestRestoreRejectsOutOfRangeResident(t *testing.T) {
	src := newTestTable(t, 8, 32, true)
	src.resident[3] = 1 << 40
	s := readBack(t, src.Snap)
	newTestTable(t, 8, 32, true).Snap(s)
	if !errors.Is(s.Err(), snap.ErrCorrupt) {
		t.Fatalf("table restore: err = %v, want snap.ErrCorrupt", s.Err())
	}

	ts := src.Snapshot()
	s = readBack(t, func(s *snap.Stream) { ts.snap(s, src) })
	new(TableSnapshot).snap(s, newTestTable(t, 8, 32, true))
	if !errors.Is(s.Err(), snap.ErrCorrupt) {
		t.Fatalf("rollback snapshot restore: err = %v, want snap.ErrCorrupt", s.Err())
	}
}
