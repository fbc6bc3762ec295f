package workload

import (
	"fmt"

	"heteromem/internal/snap"
	"heteromem/internal/trace"
)

// SnapshotTo writes the generator's mutable state: the shared PRNG state
// word, the output cursor (cycle and record ordinal), and each component
// stream's position, tagged with the workload name so a restore against
// the wrong workload fails by name rather than by structural accident.
// The Spec, weights, and layout are construction inputs — a restore
// target must be built from the identical Spec and the snapshot's stream
// count is validated against it.
func (g *Generator) SnapshotTo(e *snap.Encoder) {
	e.String(g.spec.Name)
	e.U64(g.rng.State())
	e.U64(g.cycle)
	e.U64(g.n)
	e.U32(uint32(len(g.streams)))
	for _, s := range g.streams {
		s.snapshotTo(e)
	}
}

// RestoreFrom reads the state written by SnapshotTo into a generator
// freshly built from the same Spec and seed.
func (g *Generator) RestoreFrom(d *snap.Decoder) error {
	name := d.String()
	if err := d.Err(); err != nil {
		return err
	}
	if name != g.spec.Name {
		d.Invalid("snapshot is of workload %q, generator is %q", name, g.spec.Name)
		return d.Err()
	}
	g.rng.SetState(d.U64())
	g.cycle = d.U64()
	g.n = d.U64()
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(g.streams) {
		d.Invalid("generator has %d streams, snapshot has %d", len(g.streams), n)
		return d.Err()
	}
	for _, s := range g.streams {
		s.restoreFrom(d)
	}
	return d.Err()
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
