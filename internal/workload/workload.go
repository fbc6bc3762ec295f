package workload

import (
	"fmt"

	"heteromem/internal/rng"
	"heteromem/internal/trace"
)

// Component is one weighted access-pattern stream of a workload. Components
// are laid out contiguously in the workload's address space in declaration
// order.
type Component struct {
	Name      string
	Weight    int     // relative share of accesses
	Region    uint64  // bytes of address space this component covers
	WriteFrac float64 // fraction of accesses that are stores
	// Make builds the stream; region is the component's size.
	Make func(rng *rng.Rand, region uint64) stream
}

// Spec describes a synthetic workload.
type Spec struct {
	Name        string
	Description string
	MeanGap     float64 // mean CPU cycles between consecutive accesses
	Cores       int     // CPUs issuing accesses (round-robin-ish)
	Components  []Component
}

// Footprint returns the total address-space coverage in bytes.
func (s Spec) Footprint() uint64 {
	var f uint64
	for _, c := range s.Components {
		f += c.Region
	}
	return f
}

// Generator emits the trace of a Spec; it implements trace.Source. The
// per-component fields consulted on every record (region, write fraction)
// are mirrored into parallel slices so the hot loop never copies a whole
// Component struct out of the spec.
type Generator struct {
	spec       Spec
	rng        *rng.Rand
	streams    []stream
	bases      []uint64
	regions    []uint64
	writeFracs []float64
	cum        []int // cumulative weights
	total      int
	meanGap    float64
	cores      int
	cycle      uint64
	n          uint64
}

// New builds a deterministic generator for spec with the given seed.
func New(spec Spec, seed int64) (*Generator, error) {
	if len(spec.Components) == 0 {
		return nil, fmt.Errorf("workload %q: no components", spec.Name)
	}
	if spec.MeanGap <= 0 {
		return nil, fmt.Errorf("workload %q: mean gap must be positive", spec.Name)
	}
	g := &Generator{spec: spec, rng: rng.New(uint64(seed)), meanGap: spec.MeanGap, cores: spec.Cores}
	if g.cores <= 0 {
		g.cores = 4
	}
	var base uint64
	total := 0
	for _, c := range spec.Components {
		if c.Weight <= 0 || c.Region == 0 {
			return nil, fmt.Errorf("workload %q: component %q needs positive weight and region", spec.Name, c.Name)
		}
		g.streams = append(g.streams, c.Make(g.rng, c.Region))
		g.bases = append(g.bases, base)
		g.regions = append(g.regions, c.Region)
		g.writeFracs = append(g.writeFracs, c.WriteFrac)
		base += c.Region
		total += c.Weight
		g.cum = append(g.cum, total)
	}
	g.total = total
	return g, nil
}

// Spec returns the generator's specification.
func (g *Generator) Spec() Spec { return g.spec }

// Footprint returns the workload footprint in bytes.
func (g *Generator) Footprint() uint64 { return g.spec.Footprint() }

// NextBatch implements trace.Source by filling every record of b. The
// stream is unbounded; wrap it in trace.NewLimit for a finite run. Each
// record consumes the RNG in a fixed order, so the stream does not depend
// on how it is cut into batches.
func (g *Generator) NextBatch(b *trace.Batch) (int, error) {
	n := b.Len()
	cycle := g.cycle
	for k := 0; k < n; k++ {
		w := g.rng.Intn(g.total)
		// Pick the component whose cumulative-weight bucket holds w.
		// Component counts are tiny (a handful per spec), so a linear scan
		// beats a binary search's branches.
		i := 0
		for g.cum[i] <= w {
			i++
		}
		region := g.regions[i]
		off := g.streams[i].next(g.rng)
		if off >= region {
			off %= region
		}
		gap := g.rng.ExpFloat64() * g.meanGap
		if gap < 1 {
			gap = 1
		}
		cycle += uint64(gap)
		b.Cycle[k] = cycle
		b.Addr[k] = g.bases[i] + off
		b.CPU[k] = uint8(g.rng.Intn(g.cores))
		b.Write[k] = g.rng.Float64() < g.writeFracs[i]
	}
	g.cycle = cycle
	g.n += uint64(n)
	return n, nil
}

// Names returns the registered memory-trace workload names in the order
// the paper's figures list them.
func Names() []string {
	return []string{"FT", "MG", "pgbench", "indexer", "SPECjbb", "SPEC2006"}
}

// ProgramNames returns the NPB 3.3 program-level workload names (Table I).
func ProgramNames() []string {
	return []string{"BT.C", "CG.C", "DC.B", "EP.C", "FT.C", "IS.C", "LU.C", "MG.C", "SP.C", "UA.C"}
}

// MemorySpec returns the Section IV memory-trace spec for name.
func MemorySpec(name string) (Spec, error) {
	if s, ok := memorySpecs[name]; ok {
		return s(), nil
	}
	return Spec{}, fmt.Errorf("workload: unknown memory workload %q (have %v)", name, Names())
}

// ProgramSpec returns the Section II program-level spec for name.
func ProgramSpec(name string) (Spec, error) {
	if s, ok := programSpecs[name]; ok {
		return s(), nil
	}
	return Spec{}, fmt.Errorf("workload: unknown program workload %q (have %v)", name, ProgramNames())
}

// NewMemory is shorthand for New(MemorySpec(name), seed).
func NewMemory(name string, seed int64) (*Generator, error) {
	s, err := MemorySpec(name)
	if err != nil {
		return nil, err
	}
	return New(s, seed)
}

// NewProgram is shorthand for New(ProgramSpec(name), seed).
func NewProgram(name string, seed int64) (*Generator, error) {
	s, err := ProgramSpec(name)
	if err != nil {
		return nil, err
	}
	return New(s, seed)
}
