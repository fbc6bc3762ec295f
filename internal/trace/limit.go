package trace

import (
	"fmt"
	"io"

	"heteromem/internal/snap"
)

// Limit wraps a source and stops after n records.
type Limit struct {
	src  Source
	left uint64
}

// NewLimit returns a source yielding at most n records from src.
func NewLimit(src Source, n uint64) *Limit { return &Limit{src: src, left: n} }

// NextBatch implements Source: the budgeted prefix of the batch is
// delegated to the inner source.
func (l *Limit) NextBatch(b *Batch) (int, error) {
	n := b.Len()
	if uint64(n) > l.left {
		n = int(l.left)
	}
	if n == 0 {
		if b.Len() == 0 {
			return 0, nil
		}
		return 0, io.EOF
	}
	var k int
	var err error
	if n == b.Len() {
		k, err = l.src.NextBatch(b)
	} else {
		sub := b.head(n)
		k, err = l.src.NextBatch(&sub)
	}
	l.left -= uint64(k)
	return k, err
}

// Limit source kinds recorded in a snapshot.
const (
	limitSrcSnapshot = 0 // inner source state serialized (snap.Snapshotter)
	limitSrcPosition = 1 // inner record index only (Positioner)
)

// SnapshotTo makes a Limit checkpointable whenever its inner source is:
// the remaining budget is serialized together with either the inner
// source's full state or its position. A Limit over a source that supports
// neither fails the snapshot with a clear error.
func (l *Limit) SnapshotTo(e *snap.Encoder) {
	e.U64(l.left)
	switch s := l.src.(type) {
	case snap.Snapshotter:
		e.U8(limitSrcSnapshot)
		s.SnapshotTo(e)
	case Positioner:
		e.U8(limitSrcPosition)
		e.U64(s.Position())
	default:
		e.Fail(fmt.Errorf("trace: Limit source %T supports neither snapshot nor positioning", l.src))
	}
}

// RestoreFrom implements snap.Snapshotter.
func (l *Limit) RestoreFrom(d *snap.Decoder) error {
	left := d.U64()
	switch kind := d.U8(); kind {
	case limitSrcSnapshot:
		s, ok := l.src.(snap.Snapshotter)
		if !ok {
			d.Invalid("snapshot holds inner source state but %T cannot restore it", l.src)
			return d.Err()
		}
		if err := d.Err(); err != nil {
			return err
		}
		if err := s.RestoreFrom(d); err != nil {
			return err
		}
	case limitSrcPosition:
		pos := d.U64()
		s, ok := l.src.(Positioner)
		if !ok {
			d.Invalid("snapshot holds an inner source position but %T cannot seek", l.src)
			return d.Err()
		}
		if err := d.Err(); err != nil {
			return err
		}
		if err := s.SkipTo(pos); err != nil {
			return err
		}
	default:
		d.Invalid("unknown Limit source kind %d", kind)
		return d.Err()
	}
	if err := d.Err(); err != nil {
		return err
	}
	l.left = left
	return nil
}
