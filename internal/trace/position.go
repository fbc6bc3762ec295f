package trace

import "fmt"

// Positioner is a Source that tracks an absolute record index and can seek
// to one. Position returns the index of the next record the source will
// yield; SkipTo advances the source so the next record yielded is record n.
// Streaming sources reject seeking backward, and every implementation
// rejects skipping past the end of the trace.
type Positioner interface {
	Source
	Position() uint64
	SkipTo(n uint64) error
}

// Position implements Positioner.
func (s *SliceSource) Position() uint64 { return uint64(s.i) }

// SkipTo implements Positioner; an in-memory source can seek both ways.
// Skipping to exactly the record count positions the source at EOF.
func (s *SliceSource) SkipTo(n uint64) error {
	if n > uint64(len(s.recs)) {
		return fmt.Errorf("trace: skip to record %d past end of %d-record trace", n, len(s.recs))
	}
	s.i = int(n)
	return nil
}

// Position implements Positioner.
func (r *Reader) Position() uint64 { return r.n }

// SkipTo implements Positioner by decoding and discarding records; the
// binary stream cannot seek backward.
func (r *Reader) SkipTo(n uint64) error {
	if n < r.n {
		return fmt.Errorf("trace: cannot seek backward from record %d to %d", r.n, n)
	}
	if n == r.n {
		return nil
	}
	if _, err := Each(r, n-r.n, func(Record) error { return nil }); err != nil {
		return err
	}
	if r.n < n {
		return fmt.Errorf("trace: skip to record %d past end of trace (%d records)", n, r.n)
	}
	return nil
}
