package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"

	"heteromem/internal/addr"
	"heteromem/internal/cache"
	"heteromem/internal/config"
	"heteromem/internal/cpu"
	"heteromem/internal/trace"
	"heteromem/internal/workload"
)

// Table1 prints the NPB 3.3 memory footprints (Table I), computed from the
// workload specs so the table cannot drift from the generators.
func Table1(ctx context.Context, w io.Writer, p Params) error {
	t := newTable("Workload", "Memory", "Description")
	for _, name := range workload.ProgramNames() {
		spec, err := workload.ProgramSpec(name)
		if err != nil {
			return err
		}
		t.AddRow(name, sizeLabel(spec.Footprint()), spec.Description)
	}
	fmt.Fprintln(w, "Table I: memory footprints of the NPB 3.3 benchmark suite")
	_, err := io.WriteString(w, t.String())
	return err
}

// Table2 prints the baseline configuration (Table II) including the derived
// on/off-package latency build-ups.
func Table2(ctx context.Context, w io.Writer, p Params) error {
	proc := config.Baseline()
	lat := defaultLatencies()
	t := newTable("Parameter", "Value")
	t.AddRow("Number of cores", fmt.Sprint(proc.Cores))
	t.AddRow("Frequency", fmt.Sprintf("%.1fGHz", proc.FrequencyGHz))
	for _, lvl := range config.SRAMHierarchy() {
		scope := "private"
		if lvl.Shared {
			scope = "shared"
		}
		t.AddRow(lvl.Name+" cache", fmt.Sprintf("%s, %d-way, %d-cycle, %s", sizeLabel(lvl.Size), lvl.Ways, lvl.Latency, scope))
	}
	t.AddRow("Memory controller", fmt.Sprintf("%d-cycle for processing", lat.MemCtrlProcessing))
	t.AddRow("Controller-to-core delay", fmt.Sprintf("%d-cycle each way", lat.CtrlToCoreOneWay))
	t.AddRow("Package pin delay", fmt.Sprintf("%d-cycle each way", lat.PackagePinOneWay))
	t.AddRow("PCB wire delay", fmt.Sprintf("%d-cycle round-trip", lat.PCBWireRoundTrip))
	t.AddRow("Interposer pin delay", fmt.Sprintf("%d-cycle each way", lat.InterposerOneWay))
	t.AddRow("Intra-package delay", fmt.Sprintf("%d-cycle round-trip", lat.IntraPackageRT))
	t.AddRow("DRAM core delay", fmt.Sprintf("%d-cycle", lat.DRAMCore))
	t.AddRow("Queuing delay (8-bank off-pkg)", fmt.Sprintf("%d-cycle", lat.OffPkgQueueFixed))
	t.AddRow("L4 cache (on-pkg DRAM)", fmt.Sprintf("1GB, 15-way, hit %d-cycle, miss %d-cycle", lat.L4HitLatency(), lat.L4MissProbe()))
	t.AddRow("On-package memory", fmt.Sprintf("1GB, %d-cycle", lat.OnPackageTotalEstimate()))
	t.AddRow("Off-package memory", fmt.Sprintf("%d-cycle", lat.OffPackageTotalEstimate()))
	fmt.Fprintln(w, "Table II: baseline processor and on-package DRAM options")
	_, err := io.WriteString(w, t.String())
	return err
}

// Fig4Point is one (workload, capacity) LLC miss-rate sample.
type Fig4Point struct {
	Workload string
	Capacity uint64
	MissRate float64
	Accesses uint64
	L3Misses uint64
}

// Fig4Capacities is the LLC capacity sweep of Fig. 4.
var Fig4Capacities = []uint64{
	4 * addr.MiB, 8 * addr.MiB, 16 * addr.MiB, 32 * addr.MiB, 64 * addr.MiB,
	128 * addr.MiB, 256 * addr.MiB, 512 * addr.MiB, 1 * addr.GiB,
}

// Fig4Data computes the Fig. 4 miss-rate curves.
func Fig4Data(ctx context.Context, p Params) ([]Fig4Point, error) {
	const defRecords = 2_000_000
	records := p.records(defRecords)
	names := p.workloads(workload.ProgramNames())
	out := make([]Fig4Point, len(names)*len(Fig4Capacities))
	// A 1 GB LLC model holds ~256 MB of tag state, so cap the concurrent
	// hierarchies regardless of GOMAXPROCS.
	workers := p.Parallelism
	if workers <= 0 || workers > 4 {
		workers = 4
	}
	// Every capacity point replays the identical trace (same workload, same
	// seed), so materialize each workload once into the packed columnar
	// form (~5 bytes/record vs 24 for []trace.Record) and replay it at
	// every point; the decoded stream is bit-identical to regeneration.
	// Jobs walk the capacities largest-first and recycle finished
	// hierarchies through a pool (ResizeL3 reuses the L3 slot arena), so
	// the sweep allocates one arena per worker, sized by the largest
	// points, instead of a fresh hierarchy per (workload, capacity) cell.
	packs := make([]*trace.Packed, len(names))
	for wi, name := range names {
		gen, err := workload.NewProgram(name, p.seed())
		if err != nil {
			return nil, err
		}
		if packs[wi], err = trace.Pack(gen, records); err != nil {
			return nil, err
		}
	}
	var pool struct {
		sync.Mutex
		hs []*cache.Hierarchy
	}
	cores := config.Baseline().Cores
	err := p.forEach(ctx, len(Fig4Capacities), workers, func(j int) error {
		i := len(Fig4Capacities) - 1 - j // descending capacity order
		levels := config.SRAMHierarchy()
		levels[2].Size = Fig4Capacities[i]
		pool.Lock()
		var h *cache.Hierarchy
		if n := len(pool.hs); n > 0 {
			h, pool.hs = pool.hs[n-1], pool.hs[:n-1]
		}
		pool.Unlock()
		if h == nil {
			var err error
			if h, err = cache.NewHierarchy(cores, levels); err != nil {
				return err
			}
		} else if err := h.ResizeL3(levels[2].Size); err != nil {
			return err
		}
		var b trace.Batch
		for wi, name := range names {
			if wi > 0 {
				h.Reset()
			}
			src := trace.NewPackedSource(packs[wi])
			for {
				b.Resize(trace.PackedChunkRecords)
				k, err := src.NextBatch(&b)
				for r := 0; r < k; r++ {
					h.Access(int(b.CPU[r]), b.Addr[r], b.Write[r])
				}
				if err != nil {
					break // io.EOF; packed replay has no other failure mode
				}
			}
			st := h.L3Stats()
			out[wi*len(Fig4Capacities)+i] = Fig4Point{
				Workload: name, Capacity: Fig4Capacities[i],
				MissRate: st.MissRate(), Accesses: st.Accesses, L3Misses: st.Misses,
			}
		}
		pool.Lock()
		pool.hs = append(pool.hs, h)
		pool.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig4 renders the LLC miss rate vs capacity curves (Fig. 4).
func Fig4(ctx context.Context, w io.Writer, p Params) error {
	points, err := Fig4Data(ctx, p)
	if err != nil {
		return err
	}
	header := []string{"Workload"}
	for _, c := range Fig4Capacities {
		header = append(header, sizeLabel(c))
	}
	t := newTable(header...)
	addWorkloadRows(t, points,
		func(pt Fig4Point) string { return pt.Workload },
		func(pt Fig4Point) string { return fmt.Sprintf("%.1f%%", pt.MissRate*100) })
	fmt.Fprintln(w, "Fig. 4: last-level cache miss rate vs LLC capacity")
	_, err = io.WriteString(w, t.String())
	return err
}

// Fig5Row is one workload's IPC comparison across the paper's four memory
// options, plus this reproduction's extension: an optimistic bound for the
// dynamically migrating heterogeneous memory Section III proposes.
type Fig5Row struct {
	Workload  string
	Baseline  cpu.Result
	L4        cpu.Result
	Static    cpu.Result
	AllOn     cpu.Result
	Migrating cpu.Result
}

// Improvement returns the percentage IPC improvements over baseline for
// (L4, static on-chip, all on-chip).
func (r Fig5Row) Improvement() (l4, static, allOn float64) {
	base := r.Baseline.IPC
	return (r.L4.IPC - base) / base * 100,
		(r.Static.IPC - base) / base * 100,
		(r.AllOn.IPC - base) / base * 100
}

// Fig5Data runs the four Section II configurations per workload (plus the
// dynamic-migration extension column). Half of each run warms the caches
// and the L4/migration state, mirroring the paper's warmup phase. No level
// of the SRAM hierarchy depends on the memory model, so each workload's
// generator streams through one hierarchy walk that prices every L3 miss
// under all five models. Workloads run in parallel, each with its own
// models (about 16 MB of L4 slots apiece), and a cancelled context stops
// the sweep before its next workload.
func Fig5Data(ctx context.Context, p Params) ([]Fig5Row, error) {
	const defRecords = 2_000_000
	records := p.records(defRecords)
	warmup := p.warmup(records)
	measured := records - warmup
	lat := defaultLatencies()
	model := cpu.DefaultModel()
	levels := config.SRAMHierarchy()

	names := p.workloads(workload.ProgramNames())
	out := make([]Fig5Row, len(names))
	err := p.forEach(ctx, len(names), p.Parallelism, func(i int) error {
		name := names[i]
		l4, err := cpu.NewL4Backed(lat, 1*addr.GiB)
		if err != nil {
			return err
		}
		migModel, err := cpu.NewMigratingModel(lat, 1*addr.GiB, config.SectionIIGeometry().TotalCapacity, 4*addr.MiB, 10000)
		if err != nil {
			return err
		}
		gen, err := workload.NewProgram(name, p.seed())
		if err != nil {
			return err
		}
		res, err := cpu.Run(gen, measured, warmup, levels, model,
			cpu.OffOnly{Lat: lat}, l4, cpu.StaticSplit{Lat: lat, OnBytes: 1 * addr.GiB}, cpu.AllOn{Lat: lat}, migModel)
		if err != nil {
			return fmt.Errorf("fig5 %s: %w", name, err)
		}
		out[i] = Fig5Row{Workload: name, Baseline: res[0], L4: res[1], Static: res[2], AllOn: res[3], Migrating: res[4]}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig5 renders the IPC comparison (Fig. 5): IPC improvement over the
// baseline for the L4-cache, static on-chip memory, and all-on-chip options.
func Fig5(ctx context.Context, w io.Writer, p Params) error {
	rows, err := Fig5Data(ctx, p)
	if err != nil {
		return err
	}
	t := newTable("Workload", "Baseline IPC", "L4 Cache 1GB", "1GB On-Chip Memory", "Dynamic Migration*", "All Memory On-Chip")
	for _, r := range rows {
		l4, st, all := r.Improvement()
		mig := (r.Migrating.IPC - r.Baseline.IPC) / r.Baseline.IPC * 100
		t.AddRow(r.Workload,
			fmt.Sprintf("%.3f", r.Baseline.IPC),
			fmt.Sprintf("%+.1f%%", l4),
			fmt.Sprintf("%+.1f%%", st),
			fmt.Sprintf("%+.1f%%", mig),
			fmt.Sprintf("%+.1f%%", all))
	}
	fmt.Fprintln(w, "Fig. 5: IPC comparison among options for the on-package DRAM")
	fmt.Fprintln(w, "(*extension: Section III's dynamic migration, copy costs not charged —")
	fmt.Fprintln(w, " the paper's claim that dynamic mapping approaches the ideal)")
	_, err = io.WriteString(w, t.String())
	return err
}
