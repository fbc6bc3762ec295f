package workload

import (
	"fmt"

	"heteromem/internal/snap"
	"heteromem/internal/trace"
)

// Snap carries the generator's mutable state: the shared PRNG state word,
// the output cursor (cycle and record ordinal), and each component stream's
// position, tagged with the workload name so a restore against the wrong
// workload fails by name rather than by structural accident. The Spec,
// weights, and layout are construction inputs — a restore target must be
// built from the identical Spec and the snapshot's stream count is
// validated against it.
func (g *Generator) Snap(s *snap.Stream) {
	name := g.spec.Name
	s.String(&name)
	if name != g.spec.Name {
		s.Invalid("snapshot is of workload %q, generator is %q", name, g.spec.Name)
		return
	}
	state := g.rng.State()
	s.U64(&state)
	g.rng.SetState(state)
	s.U64(&g.cycle)
	s.U64(&g.n)
	s.Shape(len(g.streams), "generator streams")
	for _, st := range g.streams {
		st.snap(s)
	}
}

// Position implements trace.Positioner: the number of records emitted.
func (g *Generator) Position() uint64 { return g.n }

// SkipTo advances the generator so the next record is record n (0-based)
// by regenerating and discarding; the stream is unbounded, so only a
// backward skip can fail.
func (g *Generator) SkipTo(n uint64) error {
	if n < g.n {
		return fmt.Errorf("workload: cannot skip backward from record %d to %d", g.n, n)
	}
	if n == g.n {
		return nil
	}
	_, err := trace.Each(g, n-g.n, func(trace.Record) error { return nil })
	return err
}
