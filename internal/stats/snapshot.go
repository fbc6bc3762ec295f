package stats

import (
	"encoding/json"

	"heteromem/internal/snap"
)

// Snap carries the accumulator's full Welford state.
func (s *LatencyStat) Snap(st *snap.Stream) {
	st.U64(&s.n)
	st.F64(&s.sum)
	snap.Int64(st, &s.min)
	snap.Int64(st, &s.max)
	st.F64(&s.m2)
	st.F64(&s.mu)
}

// latencyStatJSON is the exported JSON shape of a LatencyStat. The fields
// carry the complete accumulator state (not just derived summaries) so a
// Result stored in a sweep manifest reloads with full fidelity.
type latencyStatJSON struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	M2    float64 `json:"m2"`
}

// MarshalJSON encodes the full accumulator state.
func (s LatencyStat) MarshalJSON() ([]byte, error) {
	return json.Marshal(latencyStatJSON{
		Count: s.n, Sum: s.sum, Min: s.min, Max: s.max, Mean: s.mu, M2: s.m2,
	})
}

// UnmarshalJSON decodes the state written by MarshalJSON.
func (s *LatencyStat) UnmarshalJSON(b []byte) error {
	var j latencyStatJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	s.n, s.sum, s.min, s.max, s.mu, s.m2 = j.Count, j.Sum, j.Min, j.Max, j.Mean, j.M2
	return nil
}

// Snap carries the bucket counts and total.
func (h *Histogram) Snap(s *snap.Stream) {
	for i := range h.buckets {
		s.U64(&h.buckets[i])
	}
	s.U64(&h.total)
}
