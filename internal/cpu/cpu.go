// Package cpu provides the stall-accounting core model behind the
// Section II IPC comparison (Fig. 5). It is not a pipeline simulator: like
// the paper's own use of a fixed-latency memory model inside Simics, it
// charges each access the latency of the level that served it and derives
// aggregate IPC from base CPI plus memory stall cycles. Relative IPC across
// memory configurations — the quantity Fig. 5 plots — depends only on miss
// rates and the latency gaps, which this model carries exactly.
package cpu

import (
	"fmt"

	"heteromem/internal/cache"
	"heteromem/internal/config"
	"heteromem/internal/trace"
)

// MemoryModel prices a main-memory access for one Fig. 5 configuration.
type MemoryModel interface {
	Name() string
	// Latency returns the cycles to serve the access at physical address a.
	Latency(a uint64, write bool) int64
}

// OffOnly is configuration (a): every access goes to off-package DIMMs.
type OffOnly struct{ Lat config.Latencies }

// Name implements MemoryModel.
func (OffOnly) Name() string { return "baseline" }

// Latency implements MemoryModel.
func (m OffOnly) Latency(uint64, bool) int64 { return m.Lat.OffPackageTotalEstimate() }

// L4Backed is configuration (b): a 1 GB on-package DRAM L4 in front of the
// off-package memory. The L4 is 15 ways of data in a 16-way array, with
// all of a set's tags packed into the 16th line, so a lookup always costs
// one on-package access (the tag read) and a hit a second (the data read):
// a hit costs L4HitLatency, twice the on-package access, and a miss the
// tag probe plus the off-package access.
type L4Backed struct {
	Lat config.Latencies
	L4  *cache.Cache
}

// NewL4Backed builds configuration (b) over an L4 array of size bytes. One
// row of 16 512-byte lines holds 15 data lines plus the set's tags, so the
// cache's data capacity is 15/16 of size.
func NewL4Backed(lat config.Latencies, size uint64) (*L4Backed, error) {
	l4, err := cache.New("L4", size/16*15, 512, 15)
	if err != nil {
		return nil, err
	}
	return &L4Backed{Lat: lat, L4: l4}, nil
}

// Name implements MemoryModel.
func (*L4Backed) Name() string { return "L4 cache 1GB" }

// Latency implements MemoryModel.
func (m *L4Backed) Latency(a uint64, write bool) int64 {
	if hit, _, _ := m.L4.Access(a, write); hit {
		return m.Lat.L4HitLatency()
	}
	return m.Lat.L4MissProbe() + m.Lat.OffPackageTotalEstimate()
}

// StaticSplit is configuration (c): the lowest OnBytes of physical memory
// map to on-package DRAM, the rest to DIMMs (no migration).
type StaticSplit struct {
	Lat     config.Latencies
	OnBytes uint64
}

// Name implements MemoryModel.
func (StaticSplit) Name() string { return "1GB on-chip memory" }

// Latency implements MemoryModel.
func (m StaticSplit) Latency(a uint64, _ bool) int64 {
	if a < m.OnBytes {
		return m.Lat.OnPackageTotalEstimate()
	}
	return m.Lat.OffPackageTotalEstimate()
}

// AllOn is configuration (d): the ideal, all memory on-package.
type AllOn struct{ Lat config.Latencies }

// Name implements MemoryModel.
func (AllOn) Name() string { return "all memory on-chip" }

// Latency implements MemoryModel.
func (m AllOn) Latency(uint64, bool) int64 { return m.Lat.OnPackageTotalEstimate() }

// Model holds the per-workload execution parameters.
type Model struct {
	BaseCPI        float64 // cycles per instruction with a perfect memory
	AccessPerInstr float64 // memory references per instruction
	Cores          int
	// MLPOverlap discounts memory stalls for overlap between outstanding
	// misses (1 = fully serialized). In-order quad-core with small windows:
	// modest overlap.
	MLPOverlap float64
}

// DefaultModel matches the Table II quad-core.
func DefaultModel() Model {
	return Model{BaseCPI: 1.0, AccessPerInstr: 0.3, Cores: 4, MLPOverlap: 0.8}
}

// EstimateIPC converts a mean memory-access latency (in cycles) into the
// model's aggregate IPC under the approximation that every trace record
// misses the SRAM hierarchy — the regime of the post-L3 memory traces the
// sim package consumes. Dividing the Run accounting by the access
// count collapses it to
//
//	IPC = Cores / (BaseCPI + AccessPerInstr · MLPOverlap · meanLat)
//
// It prices recorded sim results (e.g. sweep manifest cells) into IPC
// without re-simulating: absolute values sit below Fig. 5's (no SRAM hits
// dilute the stalls), but the relative ordering across memory
// configurations is preserved.
func (m Model) EstimateIPC(meanLat float64) float64 {
	return float64(m.Cores) / (m.BaseCPI + m.AccessPerInstr*m.MLPOverlap*meanLat)
}

// Result is one configuration's outcome.
type Result struct {
	Config      string
	Accesses    uint64
	Instr       float64
	Cycles      float64
	IPC         float64 // total (all cores) instructions per cycle
	L3MissRate  float64
	MemAccesses uint64
}

// Run feeds warmup+n records from src through the hierarchy once and
// prices each L3 miss with every model in mems, returning one Result per
// model, in order. The first warmup records exercise the caches and the
// memory models but are excluded from the cycle accounting, mirroring the
// paper's 1-billion-instruction warmup before full simulation (Table II).
// No level of the hierarchy depends on the memory model, so each model
// sees, in trace order, the L3 misses a run with it alone would, and its
// stall sum adds the same terms in the same order.
func Run(src trace.Source, n, warmup uint64, levels []config.CacheLevel, m Model, mems ...MemoryModel) ([]Result, error) {
	h, err := cache.NewHierarchy(m.Cores, levels)
	if err != nil {
		return nil, err
	}
	if m.MLPOverlap <= 0 || m.MLPOverlap > 1 {
		return nil, fmt.Errorf("cpu: MLP overlap %f out of (0,1]", m.MLPOverlap)
	}
	stalls := make([]float64, len(mems))
	memLat := make([]float64, len(mems))
	var count, seen, memAcc uint64
	latL1 := float64(levels[0].Latency)
	latL2 := float64(levels[1].Latency)
	latL3 := float64(levels[2].Latency)
	walk := func(rec trace.Record) error {
		seen++
		lvl := h.Access(int(rec.CPU), rec.Addr, rec.Write)
		if lvl == cache.Memory {
			// Always drive the memory models so L4 contents and migration
			// state warm up alongside the SRAM hierarchy.
			for i, mem := range mems {
				memLat[i] = float64(mem.Latency(rec.Addr, rec.Write))
			}
		}
		if seen <= warmup {
			return nil
		}
		count++
		var lat float64
		switch lvl {
		case cache.L1:
			lat = latL1
		case cache.L2:
			lat = latL2
		case cache.L3:
			lat = latL3
		case cache.Memory:
			memAcc++
			for i := range stalls {
				stalls[i] += latL3 + memLat[i]*m.MLPOverlap
			}
			return nil
		}
		for i := range stalls {
			stalls[i] += lat
		}
		return nil
	}
	if n+warmup > 0 {
		if _, err := trace.Each(src, n+warmup, walk); err != nil {
			return nil, err
		}
	}
	if count == 0 {
		return nil, fmt.Errorf("cpu: empty trace")
	}
	instr := float64(count) / m.AccessPerInstr
	out := make([]Result, len(mems))
	for i, mem := range mems {
		cycles := instr*m.BaseCPI/float64(m.Cores) + stalls[i]/float64(m.Cores)
		out[i] = Result{
			Config:      mem.Name(),
			Accesses:    count,
			Instr:       instr,
			Cycles:      cycles,
			IPC:         instr / cycles,
			L3MissRate:  h.L3Stats().MissRate(),
			MemAccesses: memAcc,
		}
	}
	return out, nil
}
