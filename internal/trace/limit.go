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

// Snap makes a Limit checkpointable whenever its inner source is: the
// remaining budget is carried together with either the inner source's full
// state or its position. A Limit over a source that supports neither fails
// the snapshot with a clear error.
func (l *Limit) Snap(s *snap.Stream) {
	left := l.left
	s.U64(&left)
	inner, isSnap := l.src.(snap.Snapshotter)
	pos, isPos := l.src.(Positioner)
	kind := uint8(limitSrcSnapshot)
	switch {
	case isSnap:
	case isPos:
		kind = limitSrcPosition
	case !s.Reading():
		s.Fail(fmt.Errorf("trace: Limit source %T supports neither snapshot nor positioning", l.src))
		return
	}
	s.U8(&kind)
	switch kind {
	case limitSrcSnapshot:
		if !isSnap {
			s.Invalid("snapshot holds inner source state but %T cannot restore it", l.src)
			return
		}
		inner.Snap(s)
	case limitSrcPosition:
		var at uint64
		if isPos {
			at = pos.Position()
		}
		s.U64(&at)
		if !isPos {
			s.Invalid("snapshot holds an inner source position but %T cannot seek", l.src)
			return
		}
		if s.Reading() && s.Err() == nil {
			s.Fail(pos.SkipTo(at))
		}
	default:
		s.Invalid("unknown Limit source kind %d", kind)
		return
	}
	if s.Reading() && s.Err() == nil {
		l.left = left
	}
}
