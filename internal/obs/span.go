package obs

import (
	"encoding/json"
	"fmt"
)

// Lane is the pipeline stage a span belongs to. The Chrome-trace exporter
// renders one "thread" per lane, so spans on different lanes can overlap
// freely while spans within a lane are expected to nest.
type Lane uint8

// The pipeline lanes.
const (
	LaneSchedOn  Lane = iota // on-package transaction scheduler / bus
	LaneSchedOff             // off-package transaction scheduler / bus
	LaneMigrator             // migration engine: epochs, swaps, steps, stalls
	LaneFault                // fault-escalation ladder: retries, rollbacks, retirements

	laneEnd // sentinel; keep last
)

// String names the lane the way the trace viewer shows it.
func (l Lane) String() string {
	switch l {
	case LaneSchedOn:
		return "sched on-pkg"
	case LaneSchedOff:
		return "sched off-pkg"
	case LaneMigrator:
		return "migrator"
	case LaneFault:
		return "fault ladder"
	default:
		return fmt.Sprintf("Lane(%d)", uint8(l))
	}
}

// MarshalJSON renders the lane as its string name.
func (l Lane) MarshalJSON() ([]byte, error) { return json.Marshal(l.String()) }

// SpanKind discriminates trace spans. Zero-duration spans (Begin == End)
// are instant marks; the exporter renders them as instant events.
type SpanKind uint8

// Span kinds recorded by the instrumented pipeline. The meaning of the
// A/B/C payload depends on the kind.
const (
	SpanSwap      SpanKind = iota + 1 // whole swap lifecycle; A=MRU page, B=victim slot, C=steps
	SpanStep                          // one swap step (copies + table update); A=MRU page, B=step index
	SpanCopyRead                      // source leg of one sub-block copy; A=src machine page, B=sub index, C=bytes
	SpanCopyWrite                     // destination leg of one sub-block copy; A=dst machine page, B=sub index, C=bytes
	SpanStall                         // N-design execution stall; A=stall cycles
	SpanRollback                      // swap abort -> table restored; A=MRU page, B=1 if the undo was abandoned
	SpanBackoff                       // fault-retry backoff window; A=injection point, B=attempt
	SpanRetire                        // slot retirement evacuation; A=slot, B=spare machine page
	MarkEpoch                         // instant: monitoring epoch boundary; A=epoch index
	MarkPStall                        // instant: access redirected to Ω by a P bit; A=physical page
	MarkFault                         // instant: injected fault observed; A=injection point, B=machine address
	MarkDegrade                       // instant: migration permanently frozen; A=total faults

	spanKindEnd // sentinel; keep last
)

// String names the span kind.
func (k SpanKind) String() string {
	switch k {
	case SpanSwap:
		return "swap"
	case SpanStep:
		return "swap-step"
	case SpanCopyRead:
		return "copy-read"
	case SpanCopyWrite:
		return "copy-write"
	case SpanStall:
		return "stall"
	case SpanRollback:
		return "rollback"
	case SpanBackoff:
		return "backoff"
	case SpanRetire:
		return "retire"
	case MarkEpoch:
		return "epoch"
	case MarkPStall:
		return "p-stall"
	case MarkFault:
		return "fault"
	case MarkDegrade:
		return "degrade"
	default:
		return fmt.Sprintf("SpanKind(%d)", uint8(k))
	}
}

// MarshalJSON renders the kind as its string name.
func (k SpanKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// Span is one begin/end interval in the cycle domain. A fixed-shape struct
// (no pointers, no strings) so appends into the tracer never allocate
// beyond the backing array; the meaning of A/B/C depends on Kind.
type Span struct {
	Lane  Lane     `json:"lane"`
	Kind  SpanKind `json:"kind"`
	Begin int64    `json:"begin"`
	End   int64    `json:"end"`
	A     uint64   `json:"a"`
	B     uint64   `json:"b"`
	C     uint64   `json:"c"`
}

// Duration returns the span length in cycles (0 for instant marks).
func (s Span) Duration() int64 { return s.End - s.Begin }

// SpanTracer records cycle-domain spans into a bounded buffer. It keeps
// the earliest spans and counts the overflow: a trace is most useful from
// the beginning, and the dropped count makes the truncation visible (no
// silent caps).
//
// Every method is nil-safe, matching the instrument idiom: a component
// wired against a disabled registry holds a nil tracer and recording is a
// single pointer test.
type SpanTracer struct {
	spans   []Span
	cap     int
	dropped uint64
}

// NewSpanTracer returns a tracer retaining up to capacity spans
// (minimum 1).
func NewSpanTracer(capacity int) *SpanTracer {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanTracer{cap: capacity}
}

// Span records one interval. Safe on a nil receiver (no-op).
func (t *SpanTracer) Span(lane Lane, kind SpanKind, begin, end int64, a, b, c uint64) {
	if t == nil {
		return
	}
	if len(t.spans) >= t.cap {
		t.dropped++
		return
	}
	t.spans = append(t.spans, Span{Lane: lane, Kind: kind, Begin: begin, End: end, A: a, B: b, C: c})
}

// Mark records an instant (zero-duration) span. Safe on a nil receiver.
func (t *SpanTracer) Mark(lane Lane, kind SpanKind, cycle int64, a, b, c uint64) {
	t.Span(lane, kind, cycle, cycle, a, b, c)
}

// Spans returns a copy of the retained spans in recording order.
func (t *SpanTracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return append([]Span(nil), t.spans...)
}

// Len returns the number of retained spans (0 for nil).
func (t *SpanTracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Dropped returns how many spans were discarded once the buffer filled.
func (t *SpanTracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Total returns every span ever recorded, retained or dropped.
func (t *SpanTracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return uint64(len(t.spans)) + t.dropped
}
