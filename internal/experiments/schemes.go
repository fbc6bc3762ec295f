package experiments

import (
	"context"
	"fmt"
	"io"

	"heteromem/internal/cpu"
	"heteromem/internal/sim"
	"heteromem/internal/workload"
)

// SchemeVariant names one column of the cross-scheme comparison: an
// on-package capacity scheme plus the migration design its memory part
// runs (empty for pure caches, which have no migration engine).
type SchemeVariant struct {
	Scheme   string
	Design   string // "" for pure cache schemes
	Interval uint64 // swap interval for migrating variants
}

// Label is the variant's column header.
func (v SchemeVariant) Label() string {
	if v.Design == "" {
		return v.Scheme
	}
	if v.Scheme == "migrate" {
		return "migrate/" + v.Design
	}
	return v.Scheme + "/" + v.Design
}

// SchemeVariants is the comparison grid of the schemes experiment: the
// paper's live migration against the DRAM-cache alternatives, all at the
// Table II/III defaults.
var SchemeVariants = []SchemeVariant{
	{Scheme: "migrate", Design: "live", Interval: 1000},
	{Scheme: "alloy", Design: ""},
	{Scheme: "alloy-pred", Design: ""},
	{Scheme: "cachemode", Design: ""},
	{Scheme: "memcache", Design: "live", Interval: 1000},
}

// SchemeCell is one (workload, variant) outcome of the comparison.
type SchemeCell struct {
	Variant       SchemeVariant
	MeanLat       float64 // end-to-end mean memory latency
	MeanDRAMLat   float64 // DRAM access latency alone (queuing + device)
	CoreLat       float64
	OnShare       float64 // fraction of demand served on-package
	HitRate       float64 // cache schemes only (0 under pure migration)
	Effectiveness float64 // η vs this workload's static baseline
	IPC           float64 // estimated quad-core IPC (cpu.Model.EstimateIPC)
}

// SchemesRow is one workload's cross-scheme comparison.
type SchemesRow struct {
	Workload  string
	StaticLat float64 // static-mapping DRAM latency baseline
	StaticIPC float64
	Cells     []SchemeCell
}

// SchemesData runs every workload through the static baseline and each
// scheme variant, and derives the paper's η effectiveness (vs static) plus
// an estimated IPC per cell.
func SchemesData(ctx context.Context, p Params) ([]SchemesRow, error) {
	records := p.records(2_000_000)
	warm := p.warmup(records)
	names := p.workloads(workload.Names())
	model := cpu.DefaultModel()

	// Per workload: the static baseline, then one run per variant.
	cfgs := []sim.Config{traceConfig(sim.Default().Geometry.MacroPageSize, nil, records, warm)}
	for _, v := range SchemeVariants {
		cfg, err := CellConfig(v.Design, v.Scheme, 0, v.Interval, 0, records, warm)
		if err != nil {
			return nil, fmt.Errorf("experiments: scheme variant %s: %w", v.Label(), err)
		}
		cfgs = append(cfgs, cfg)
	}
	var cells []cell
	for _, name := range names {
		for _, cfg := range cfgs {
			cells = append(cells, cell{name, cfg})
		}
	}
	results, err := p.sweep(ctx, cells)
	if err != nil {
		return nil, err
	}

	out := make([]SchemesRow, len(names))
	for wl, name := range names {
		runs := results[wl*len(cfgs) : (wl+1)*len(cfgs)]
		static := runs[0]
		row := SchemesRow{
			Workload:  name,
			StaticLat: static.MeanDRAMLatency,
			StaticIPC: model.EstimateIPC(static.MeanLatency),
		}
		for v, res := range runs[1:] {
			sc := SchemeCell{
				Variant:     SchemeVariants[v],
				MeanLat:     res.MeanLatency,
				MeanDRAMLat: res.MeanDRAMLatency,
				CoreLat:     res.Report.MeanCoreLat,
				OnShare:     res.Report.OnShare,
				IPC:         model.EstimateIPC(res.MeanLatency),
			}
			if res.Report.Scheme != nil {
				sc.HitRate = res.Report.Scheme.HitRate
			}
			sc.Effectiveness = sim.Effectiveness(row.StaticLat, sc.MeanDRAMLat, sc.CoreLat)
			row.Cells = append(row.Cells, sc)
		}
		out[wl] = row
	}
	return out, nil
}

// Schemes renders the cross-scheme comparison: per (workload, scheme) DRAM
// latency, cache hit rate, η effectiveness vs the static baseline, and the
// estimated IPC — the scheme-selection companion to Table IV and Fig. 5.
func Schemes(ctx context.Context, w io.Writer, p Params) error {
	rows, err := SchemesData(ctx, p)
	if err != nil {
		return err
	}
	t := newTable("Workload", "Scheme", "DRAM lat", "On-pkg share", "Hit rate", "Effectiveness", "Est. IPC")
	for _, r := range rows {
		t.AddRow(r.Workload, "static", fmt.Sprintf("%.1f", r.StaticLat), "", "", "", fmt.Sprintf("%.3f", r.StaticIPC))
		for _, c := range r.Cells {
			hit := ""
			if c.Variant.Design == "" || c.HitRate > 0 {
				hit = fmt.Sprintf("%.3f", c.HitRate)
			}
			t.AddRow("", c.Variant.Label(),
				fmt.Sprintf("%.1f", c.MeanDRAMLat),
				fmt.Sprintf("%.3f", c.OnShare),
				hit,
				fmt.Sprintf("%.1f%%", c.Effectiveness),
				fmt.Sprintf("%.3f", c.IPC))
		}
	}
	fmt.Fprintln(w, "Cross-scheme comparison: on-package capacity schemes vs the static baseline")
	_, err = io.WriteString(w, t.String())
	return err
}
