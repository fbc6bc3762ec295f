package experiments

import (
	"context"
	"fmt"
	"io"

	"heteromem/internal/addr"
	"heteromem/internal/config"
	"heteromem/internal/core"
	"heteromem/internal/sim"
	"heteromem/internal/workload"
)

// Table3 prints the trace-based simulation parameters and workload
// descriptions (Table III).
func Table3(ctx context.Context, w io.Writer, p Params) error {
	g := config.TraceGeometry()
	t := newTable("Parameter", "Value")
	t.AddRow("Total memory capacity", sizeLabel(g.TotalCapacity))
	t.AddRow("On-package memory capacity", sizeLabel(g.OnPackageCapacity))
	t.AddRow("Macro page size", fmt.Sprintf("from %s to %s", sizeLabel(Granularities[0]), sizeLabel(Granularities[len(Granularities)-1])))
	t.AddRow("Sub-block size", sizeLabel(g.SubBlockSize))
	t.AddRow("Off-package DRAM", fmt.Sprintf("%d channels x %d banks, FR-FCFS, open page", g.OffChannels, g.OffBanksPerCh))
	t.AddRow("On-package DRAM", fmt.Sprintf("%d channels x %d banks, FR-FCFS, open page", g.OnChannels, g.OnBanksPerCh))
	fmt.Fprintln(w, "Table III: simulation parameters")
	if _, err := io.WriteString(w, t.String()); err != nil {
		return err
	}
	wt := newTable("Workload", "Footprint", "Description")
	for _, name := range workload.Names() {
		spec, err := workload.MemorySpec(name)
		if err != nil {
			return err
		}
		wt.AddRow(name, sizeLabel(spec.Footprint()), spec.Description)
	}
	fmt.Fprintln(w, "\nTable III (cont.): workload / trace descriptions")
	_, err := io.WriteString(w, wt.String())
	return err
}

// Fig10 prints the pure-hardware management cost in bits as a function of
// the migration granularity (Fig. 10), for 1 GB of on-package memory.
func Fig10(ctx context.Context, w io.Writer, p Params) error {
	t := newTable("Macro page size", "Hardware overhead (bits)")
	for _, size := range []uint64{4 * addr.KiB, 16 * addr.KiB, 64 * addr.KiB, 256 * addr.KiB, 1 * addr.MiB, 4 * addr.MiB} {
		bits := core.HardwareBits(1*addr.GiB, size, 4*addr.KiB, addr.Bits)
		t.AddRow(sizeLabel(size), fmt.Sprintf("%d", bits))
	}
	fmt.Fprintln(w, "Fig. 10: hardware overhead to manage 1GB on-package memory")
	fmt.Fprintln(w, "(paper's reference point: 9,228 bits at 4MB granularity)")
	_, err := io.WriteString(w, t.String())
	return err
}

// Fig11Point is one (workload, granularity, design) latency sample.
type Fig11Point struct {
	Workload    string
	PageSize    uint64
	Design      core.Design
	Interval    uint64
	MeanLatency float64 // DRAM access latency, cycles
	OnShare     float64
	Swaps       uint64
}

// Fig11Data runs the design comparison of Fig. 11 for one swap interval:
// N vs N-1 vs Live Migration across migration granularities.
func Fig11Data(ctx context.Context, p Params, interval uint64) ([]Fig11Point, error) {
	records := p.records(1_500_000)
	warm := p.warmup(records)
	var cells []cell
	var out []Fig11Point
	for _, name := range p.workloads(workload.Names()) {
		for _, page := range Granularities {
			for _, design := range designList {
				mig := &core.Options{Design: design, SwapInterval: interval}
				cells = append(cells, cell{name, traceConfig(page, mig, records, warm)})
				out = append(out, Fig11Point{Workload: name, PageSize: page, Design: design, Interval: interval})
			}
		}
	}
	results, err := p.sweep(ctx, cells)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		out[i].MeanLatency = res.MeanDRAMLatency
		out[i].OnShare = res.Report.OnShare
		out[i].Swaps = res.Report.Migration.SwapsCompleted
	}
	return out, nil
}

// Fig11 renders the average memory access latency of the N, N-1, and Live
// designs across granularities for one swap interval (Fig. 11a/b/c).
func Fig11(ctx context.Context, w io.Writer, p Params, interval uint64) error {
	points, err := Fig11Data(ctx, p, interval)
	if err != nil {
		return err
	}
	header := []string{"Workload", "Granularity"}
	for _, d := range designList {
		header = append(header, d.String())
	}
	t := newTable(header...)
	// Each (workload, granularity) is one run of designList points.
	for i := 0; i < len(points); i += len(designList) {
		row := []string{points[i].Workload, sizeLabel(points[i].PageSize)}
		for _, pt := range points[i : i+len(designList)] {
			row = append(row, fmt.Sprintf("%.1f", pt.MeanLatency))
		}
		t.AddRow(row...)
	}
	fmt.Fprintf(w, "Fig. 11 (swap interval = %d accesses): average memory access latency (cycles)\n", interval)
	_, err = io.WriteString(w, t.String())
	return err
}

// Fig1214Point is one (workload, granularity) live-migration latency
// sample for Figs. 12-14.
type Fig1214Point struct {
	Workload    string
	PageSize    uint64
	MeanLatency float64
	OnShare     float64
}

// Fig1214Data runs live migration across granularities for one interval
// (Fig. 12: 1K, Fig. 13: 10K, Fig. 14: 100K).
func Fig1214Data(ctx context.Context, p Params, interval uint64) ([]Fig1214Point, error) {
	records := p.records(2_000_000)
	warm := p.warmup(records)
	var cells []cell
	var out []Fig1214Point
	for _, name := range p.workloads(workload.Names()) {
		for _, page := range Granularities {
			mig := &core.Options{Design: core.DesignLive, SwapInterval: interval}
			cells = append(cells, cell{name, traceConfig(page, mig, records, warm)})
			out = append(out, Fig1214Point{Workload: name, PageSize: page})
		}
	}
	results, err := p.sweep(ctx, cells)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		out[i].MeanLatency, out[i].OnShare = res.MeanDRAMLatency, res.Report.OnShare
	}
	return out, nil
}

// Fig1214 renders one of the granularity/frequency figures.
func Fig1214(ctx context.Context, w io.Writer, p Params, interval uint64) error {
	points, err := Fig1214Data(ctx, p, interval)
	if err != nil {
		return err
	}
	header := []string{"Workload"}
	for _, g := range Granularities {
		header = append(header, sizeLabel(g))
	}
	t := newTable(header...)
	addWorkloadRows(t, points,
		func(pt Fig1214Point) string { return pt.Workload },
		func(pt Fig1214Point) string { return fmt.Sprintf("%.1f", pt.MeanLatency) })
	figNo := map[uint64]int{1000: 12, 10000: 13, 100000: 14}[interval]
	fmt.Fprintf(w, "Fig. %d: average memory latency, live migration (swap interval = %d accesses)\n", figNo, interval)
	_, err = io.WriteString(w, t.String())
	return err
}

// Table4Row is one workload's effectiveness summary.
type Table4Row struct {
	Workload      string
	CoreLatency   float64
	LatNoMig      float64
	BestLatMig    float64
	BestPage      uint64
	BestInterval  uint64
	Effectiveness float64
}

// Table4Data computes the per-workload effectiveness (Table IV): the static
// baseline vs the best (granularity x interval) live-migration point.
func Table4Data(ctx context.Context, p Params) ([]Table4Row, error) {
	records := p.records(4_000_000)
	warm := p.warmup(records)
	names := p.workloads(workload.Names())
	// Per workload: the static baseline (its granularity is irrelevant),
	// then every live-migration point.
	var cells []cell
	for _, name := range names {
		cells = append(cells, cell{name, traceConfig(64*addr.KiB, nil, records, warm)})
		for _, page := range Granularities {
			for _, interval := range []uint64{1000, 10000} {
				mig := &core.Options{Design: core.DesignLive, SwapInterval: interval}
				cells = append(cells, cell{name, traceConfig(page, mig, records, warm)})
			}
		}
	}
	results, err := p.sweep(ctx, cells)
	if err != nil {
		return nil, err
	}

	per := len(cells) / len(names)
	out := make([]Table4Row, len(names))
	for wl, name := range names {
		runs := results[wl*per : (wl+1)*per]
		best := 1
		for i := 2; i < per; i++ {
			if runs[i].MeanDRAMLatency < runs[best].MeanDRAMLatency {
				best = i
			}
		}
		bestCfg := cells[wl*per+best].cfg
		row := Table4Row{
			Workload:     name,
			CoreLatency:  runs[best].Report.MeanCoreLat,
			LatNoMig:     runs[0].MeanDRAMLatency,
			BestLatMig:   runs[best].MeanDRAMLatency,
			BestPage:     bestCfg.Geometry.MacroPageSize,
			BestInterval: bestCfg.Migration.SwapInterval,
		}
		if row.BestLatMig > row.LatNoMig {
			// Migration never beat static at this scale; report static.
			row.BestLatMig, row.BestPage, row.BestInterval = row.LatNoMig, 0, 0
		}
		row.Effectiveness = sim.Effectiveness(row.LatNoMig, row.BestLatMig, row.CoreLatency)
		out[wl] = row
	}
	return out, nil
}

// Table4 renders the effectiveness table (Table IV).
func Table4(ctx context.Context, w io.Writer, p Params) error {
	rows, err := Table4Data(ctx, p)
	if err != nil {
		return err
	}
	t := newTable("Workload", "DRAM core lat", "Lat w/o migration", "Best lat w/ migration", "Best config", "Effectiveness")
	var sum float64
	for _, r := range rows {
		t.AddRow(r.Workload,
			fmt.Sprintf("%.0f", r.CoreLatency),
			fmt.Sprintf("%.1f", r.LatNoMig),
			fmt.Sprintf("%.1f", r.BestLatMig),
			fmt.Sprintf("%s/%d", sizeLabel(r.BestPage), r.BestInterval),
			fmt.Sprintf("%.1f%%", r.Effectiveness))
		sum += r.Effectiveness
	}
	fmt.Fprintln(w, "Table IV: effectiveness of memory-controller-based data migration")
	if _, err := io.WriteString(w, t.String()); err != nil {
		return err
	}
	if len(rows) > 0 {
		_, err = fmt.Fprintf(w, "Average effectiveness: %.1f%% (paper: 83%%)\n", sum/float64(len(rows)))
	}
	return err
}

// Fig15Point is one (workload, capacity) sensitivity sample.
type Fig15Point struct {
	Workload string
	Capacity uint64
	CoreLat  float64
	LatMig   float64
	LatNoMig float64
}

// Fig15Capacities is the on-package capacity sweep of Fig. 15.
var Fig15Capacities = []uint64{128 * addr.MiB, 256 * addr.MiB, 512 * addr.MiB}

// Fig15Data runs the on-package capacity sensitivity study: per point, a
// static run and a live-migration run.
func Fig15Data(ctx context.Context, p Params) ([]Fig15Point, error) {
	records := p.records(2_000_000)
	warm := p.warmup(records)
	const page = 64 * addr.KiB
	var cells []cell
	var out []Fig15Point
	for _, name := range p.workloads(workload.Names()) {
		for _, capa := range Fig15Capacities {
			static := traceConfig(page, nil, records, warm)
			mig := traceConfig(page, &core.Options{Design: core.DesignLive, SwapInterval: 1000}, records, warm)
			static.Geometry.OnPackageCapacity, mig.Geometry.OnPackageCapacity = capa, capa
			cells = append(cells, cell{name, static}, cell{name, mig})
			out = append(out, Fig15Point{Workload: name, Capacity: capa})
		}
	}
	results, err := p.sweep(ctx, cells)
	if err != nil {
		return nil, err
	}
	for i := range out {
		static, mig := results[2*i], results[2*i+1]
		out[i].CoreLat = mig.Report.MeanCoreLat
		out[i].LatMig, out[i].LatNoMig = mig.MeanDRAMLatency, static.MeanDRAMLatency
	}
	return out, nil
}

// Fig15 renders the capacity sensitivity figure.
func Fig15(ctx context.Context, w io.Writer, p Params) error {
	points, err := Fig15Data(ctx, p)
	if err != nil {
		return err
	}
	t := newTable("Workload", "On-pkg size", "DRAM core lat", "Avg lat w/ migration", "Avg lat w/o migration")
	for _, pt := range points {
		t.AddRow(pt.Workload, sizeLabel(pt.Capacity),
			fmt.Sprintf("%.0f", pt.CoreLat),
			fmt.Sprintf("%.1f", pt.LatMig),
			fmt.Sprintf("%.1f", pt.LatNoMig))
	}
	fmt.Fprintln(w, "Fig. 15: average memory access latency under different on-package sizes")
	_, err = io.WriteString(w, t.String())
	return err
}

// Fig16Point is one (workload, page size, interval) power sample.
type Fig16Point struct {
	Workload   string
	PageSize   uint64
	Interval   uint64
	Normalized float64 // total memory power / off-package-only baseline
}

// Fig16Sizes is the migration-granularity sweep of the power study.
var Fig16Sizes = []uint64{4 * addr.KiB, 16 * addr.KiB, 64 * addr.KiB}

// Fig16Data computes the relative memory power of the hybrid system with
// dynamic migration vs an off-package-only system.
func Fig16Data(ctx context.Context, p Params) ([]Fig16Point, error) {
	records := p.records(1_500_000)
	warm := p.warmup(records)
	var cells []cell
	var out []Fig16Point
	for _, name := range p.workloads(workload.Names()) {
		for _, page := range Fig16Sizes {
			for _, interval := range Intervals {
				cfg := traceConfig(page, &core.Options{Design: core.DesignLive, SwapInterval: interval}, records, warm)
				cfg.MeterPower = true
				cells = append(cells, cell{name, cfg})
				out = append(out, Fig16Point{Workload: name, PageSize: page, Interval: interval})
			}
		}
	}
	results, err := p.sweep(ctx, cells)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		out[i].Normalized = res.NormalizedPower
	}
	return out, nil
}

// Fig16 renders the power comparison.
func Fig16(ctx context.Context, w io.Writer, p Params) error {
	points, err := Fig16Data(ctx, p)
	if err != nil {
		return err
	}
	header := []string{"Workload"}
	for _, size := range Fig16Sizes {
		for _, iv := range Intervals {
			header = append(header, fmt.Sprintf("%s/%dK", sizeLabel(size), iv/1000))
		}
	}
	t := newTable(header...)
	addWorkloadRows(t, points,
		func(pt Fig16Point) string { return pt.Workload },
		func(pt Fig16Point) string { return fmt.Sprintf("%.2fx", pt.Normalized) })
	fmt.Fprintln(w, "Fig. 16: memory power relative to an off-package-DRAM-only system")
	fmt.Fprintln(w, "(columns: macro page size / swap interval)")
	_, err = io.WriteString(w, t.String())
	return err
}
