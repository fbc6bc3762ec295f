package experiments

import (
	"context"
	"fmt"
	"io"

	"heteromem/internal/core"
	"heteromem/internal/cpu"
	"heteromem/internal/scheme"
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

// variantConfig builds the simulation configuration for one variant.
func variantConfig(v SchemeVariant, records, warmup uint64) (sim.Config, error) {
	var mig *core.Options
	d, migrates, err := core.ParseDesign(v.Design)
	if err != nil && v.Design != "" { // pure cache schemes name no design
		return sim.Config{}, fmt.Errorf("experiments: scheme variant %s: unknown design %q", v.Scheme, v.Design)
	}
	if migrates {
		mig = &core.Options{Design: d, SwapInterval: v.Interval}
	}
	cfg := traceConfig(sim.Default().Geometry.MacroPageSize, mig, records, warmup)
	sp, err := scheme.Parse(v.Scheme)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.Scheme = sp
	return cfg, nil
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
	p.packed = newPackedTraces() // one packed trace per workload, replayed by every cell
	const defRecords = 2_000_000
	records := p.records(defRecords)
	warm := p.warmup(records)
	names := p.workloads(workload.Names())
	model := cpu.DefaultModel()

	type job struct {
		wl      int
		variant int // -1 marks the static baseline run
	}
	var jobs []job
	for wl := range names {
		jobs = append(jobs, job{wl: wl, variant: -1})
		for v := range SchemeVariants {
			jobs = append(jobs, job{wl: wl, variant: v})
		}
	}
	results := make([]sim.Result, len(jobs))
	err := p.forEach(ctx, len(jobs), p.Parallelism, func(i int) error {
		j := jobs[i]
		var cfg sim.Config
		var err error
		if j.variant < 0 {
			cfg = traceConfig(sim.Default().Geometry.MacroPageSize, nil, records, warm)
		} else if cfg, err = variantConfig(SchemeVariants[j.variant], records, warm); err != nil {
			return err
		}
		res, err := p.runTrace(names[j.wl], cfg)
		if err != nil {
			return fmt.Errorf("schemes %s: %w", names[j.wl], err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]SchemesRow, len(names))
	for i, j := range jobs {
		res := results[i]
		row := &out[j.wl]
		row.Workload = names[j.wl]
		if j.variant < 0 {
			row.StaticLat = res.MeanDRAMLatency
			row.StaticIPC = model.EstimateIPC(res.MeanLatency)
			continue
		}
		cell := SchemeCell{
			Variant:     SchemeVariants[j.variant],
			MeanLat:     res.MeanLatency,
			MeanDRAMLat: res.MeanDRAMLatency,
			CoreLat:     res.Report.MeanCoreLat,
			OnShare:     res.Report.OnShare,
			IPC:         model.EstimateIPC(res.MeanLatency),
		}
		if res.Report.Scheme != nil {
			cell.HitRate = res.Report.Scheme.HitRate
		}
		row.Cells = append(row.Cells, cell)
	}
	for i := range out {
		for c := range out[i].Cells {
			cell := &out[i].Cells[c]
			cell.Effectiveness = sim.Effectiveness(out[i].StaticLat, cell.MeanDRAMLat, cell.CoreLat)
		}
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
