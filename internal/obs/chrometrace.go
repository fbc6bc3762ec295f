package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// Chrome trace-event export: spans serialize into the JSON object format
// consumed by chrome://tracing and Perfetto (ui.perfetto.dev). Timestamps
// are simulation cycles, not microseconds — the viewer's time axis reads
// directly in the cycle domain. Each Lane becomes one "thread" so swap
// lifecycles, per-region bus occupancy, and the fault ladder render as
// parallel tracks.

// chromeEvent is one trace-event record. Only the fields the viewers
// require are emitted.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Phase string            `json:"ph"`
	TS    int64             `json:"ts"`
	Dur   *int64            `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`    // instant-event scope
	Args  map[string]uint64 `json:"args,omitempty"` // A/B/C payload
	// Metadata payload (thread names); a different shape than Args.
	MetaArgs map[string]interface{} `json:"margs,omitempty"`
}

// MarshalJSON emits metadata and span events with the single "args" key
// the trace format uses for both shapes.
func (e chromeEvent) MarshalJSON() ([]byte, error) {
	if e.MetaArgs != nil {
		return json.Marshal(struct {
			Name  string                 `json:"name"`
			Phase string                 `json:"ph"`
			PID   int                    `json:"pid"`
			TID   int                    `json:"tid"`
			Args  map[string]interface{} `json:"args"`
		}{e.Name, e.Phase, e.PID, e.TID, e.MetaArgs})
	}
	return json.Marshal(struct {
		Name  string            `json:"name"`
		Cat   string            `json:"cat,omitempty"`
		Phase string            `json:"ph"`
		TS    int64             `json:"ts"`
		Dur   *int64            `json:"dur,omitempty"`
		PID   int               `json:"pid"`
		TID   int               `json:"tid"`
		Scope string            `json:"s,omitempty"`
		Args  map[string]uint64 `json:"args,omitempty"`
	}{e.Name, e.Cat, e.Phase, e.TS, e.Dur, e.PID, e.TID, e.Scope, e.Args})
}

// chromeTrace is the top-level JSON object format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"` // "ms" or "ns"
}

// tracePID is the single simulated process in the exported trace.
const tracePID = 1

// WriteChromeTrace serializes spans as Chrome trace-event JSON onto w: one
// thread per Lane, in lane order, each span categorized by its lane and
// carrying its A/B/C payload as args. Spans are sorted by begin cycle
// (stable across runs of the same simulation); zero-duration spans become
// instant events.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	lanes := make([]string, laneEnd)
	for l := range lanes {
		lanes[l] = Lane(l).String()
	}
	named := make([]NamedSpan, len(spans))
	for i, s := range spans {
		lane := s.Lane.String()
		named[i] = NamedSpan{
			Lane: lane, Name: s.Kind.String(), Cat: lane, Begin: s.Begin, End: s.End,
			Args: map[string]uint64{"a": s.A, "b": s.B, "c": s.C},
		}
	}
	// displayTimeUnit must be "ms" or "ns"; "ns" keeps the axis closest to
	// raw cycle numbers.
	return writeChrome(w, "hmsim", "ns", lanes, named)
}

// NamedSpan is one interval (or instant, when Begin == End) on a named
// lane, for traces whose lane set is dynamic — the fleet timeline renders
// one lane per sweep worker plus a coordinator lane, and worker names are
// only known at runtime. Timestamps are wall-clock microseconds relative
// to the trace origin, so the viewer's axis reads directly in real time.
type NamedSpan struct {
	Lane  string            // lane (thread) name
	Name  string            // event name shown on the span
	Cat   string            // category ("" omits it)
	Begin int64             // microseconds since the trace origin
	End   int64             // microseconds; == Begin for an instant mark
	Args  map[string]uint64 // optional payload shown in the viewer
}

// WriteChromeTimeline serializes named-lane spans as Chrome trace-event
// JSON onto w. Lanes appear in the order given; spans referencing a lane
// not listed get lanes appended in first-reference order, so a caller that
// doesn't care about ordering can pass nil. Spans are sorted by begin time
// (stable), zero-duration spans become thread-scoped instant events —
// the same conventions as WriteChromeTrace, in the wall-clock domain.
func WriteChromeTimeline(w io.Writer, lanes []string, spans []NamedSpan) error {
	// Wall-clock microseconds: "ms" keeps the viewer's axis in real time.
	return writeChrome(w, "hmsim fleet", "ms", lanes, spans)
}

// writeChrome is the one trace-event encoder: a process_name row, a
// thread_name and thread_sort_index row per lane, then the spans sorted by
// begin time as complete ("X") or thread-scoped instant ("i") events.
func writeChrome(w io.Writer, process, unit string, lanes []string, spans []NamedSpan) error {
	tids := make(map[string]int, len(lanes))
	order := append([]string(nil), lanes...)
	for _, lane := range lanes {
		if _, ok := tids[lane]; !ok {
			tids[lane] = len(tids)
		}
	}
	for _, s := range spans {
		if _, ok := tids[s.Lane]; !ok {
			tids[s.Lane] = len(tids)
			order = append(order, s.Lane)
		}
	}

	sorted := append([]NamedSpan(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Begin < sorted[j].Begin })

	events := make([]chromeEvent, 0, len(sorted)+2*len(order)+1)
	events = append(events, chromeEvent{
		Name: "process_name", Phase: "M", PID: tracePID, TID: 0,
		MetaArgs: map[string]interface{}{"name": process},
	})
	for i, lane := range order {
		events = append(events,
			chromeEvent{
				Name: "thread_name", Phase: "M", PID: tracePID, TID: i,
				MetaArgs: map[string]interface{}{"name": lane},
			},
			chromeEvent{
				Name: "thread_sort_index", Phase: "M", PID: tracePID, TID: i,
				MetaArgs: map[string]interface{}{"sort_index": i},
			})
	}
	for _, s := range sorted {
		ev := chromeEvent{
			Name: s.Name,
			Cat:  s.Cat,
			TS:   s.Begin,
			PID:  tracePID,
			TID:  tids[s.Lane],
			Args: s.Args,
		}
		if d := s.End - s.Begin; d > 0 {
			ev.Phase = "X"
			ev.Dur = &d
		} else {
			ev.Phase = "i"
			ev.Scope = "t"
		}
		events = append(events, ev)
	}
	return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: unit})
}
