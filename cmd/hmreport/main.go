// Command hmreport runs the quantitative experiments, writes their data as
// CSV files, and prints a measured-vs-paper summary — the tool that
// generated the numbers in EXPERIMENTS.md.
//
// Usage:
//
//	hmreport -out results/ [-records N] [-seed N] [-series WORKLOAD]
//
// It also post-processes distributed sweeps: -fleet reads the structured
// journal a coordinator wrote (hmsim -coordinate -journal-out) and prints
// the sweep post-mortem — takeover chains, slowest cells, per-worker
// throughput — optionally emitting a wall-clock Chrome-trace timeline with
// one lane per worker:
//
//	hmreport -fleet sweep.journal -fleet-trace-out fleet.json
//
// And it compares on-package capacity schemes from a sweep manifest
// (written by hmsim -manifest or a -coordinate sweep over a scheme grid):
// per (workload, scheme) DRAM latency, cache hit rate, the paper's η
// effectiveness against the manifest's static cells, and an estimated IPC:
//
//	hmreport -schemes sweep.jsonl -schemes-csv schemes.csv
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"heteromem/internal/cpu"
	"heteromem/internal/experiments"
	"heteromem/internal/flog"
	"heteromem/internal/sim"
	"heteromem/internal/stats"
)

func main() {
	var (
		out        = flag.String("out", "results", "directory for CSV output")
		records    = flag.Uint64("records", 0, "records per simulation (0 = experiment defaults)")
		seed       = flag.Int64("seed", 1, "workload seed")
		series     = flag.String("series", "pgbench", "workload for the per-epoch effectiveness trajectory (empty disables)")
		fleet      = flag.String("fleet", "", "print a sweep post-mortem from these comma-separated journal files (hmsim -journal-out) instead of running experiments")
		fleetOut   = flag.String("fleet-trace-out", "", "with -fleet: also write the wall-clock fleet timeline as Chrome trace-event JSON to this file")
		schemes    = flag.String("schemes", "", "print a cross-scheme comparison (η vs the static cells, estimated IPC) from these comma-separated sweep manifests (hmsim -manifest / -coordinate) instead of running experiments")
		schemesCSV = flag.String("schemes-csv", "", "with -schemes: also write the comparison as CSV to this file")
	)
	flag.Parse()
	if *fleetOut != "" && *fleet == "" {
		fmt.Fprintln(os.Stderr, "hmreport: -fleet-trace-out requires -fleet")
		os.Exit(2)
	}
	if *schemesCSV != "" && *schemes == "" {
		fmt.Fprintln(os.Stderr, "hmreport: -schemes-csv requires -schemes")
		os.Exit(2)
	}
	if *fleet != "" && *schemes != "" {
		fmt.Fprintln(os.Stderr, "hmreport: -fleet and -schemes are mutually exclusive")
		os.Exit(2)
	}
	if *fleet != "" {
		if err := runFleet(os.Stdout, strings.Split(*fleet, ","), *fleetOut); err != nil {
			fmt.Fprintln(os.Stderr, "hmreport:", err)
			os.Exit(1)
		}
		return
	}
	if *schemes != "" {
		if err := runSchemes(os.Stdout, strings.Split(*schemes, ","), *schemesCSV); err != nil {
			fmt.Fprintln(os.Stderr, "hmreport:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(context.Background(), os.Stdout, *out, experiments.Params{Records: *records, Seed: *seed}, *series); err != nil {
		fmt.Fprintln(os.Stderr, "hmreport:", err)
		os.Exit(1)
	}
}

// runFleet reconstructs a distributed sweep from its structured journals
// and prints the post-mortem; traceOut optionally receives the Chrome
// trace-event timeline. Multiple journal files (a coordinator's plus any
// workers') concatenate cleanly — the coordinator records drive the
// reconstruction and worker records are tolerated.
func runFleet(w io.Writer, paths []string, traceOut string) error {
	var records []flog.Record
	for _, path := range paths {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		recs, err := flog.Read(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		records = append(records, recs...)
	}
	if len(records) == 0 {
		return fmt.Errorf("no journal records in %s", strings.Join(paths, ","))
	}
	fleet := flog.BuildFleet(records)
	fleet.WriteSummary(w)
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := fleet.WriteTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("fleet-trace-out: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "fleet timeline: %s (load in chrome://tracing or ui.perfetto.dev)\n", traceOut)
	}
	return nil
}

// schemeGroupKey identifies the η baseline scope: effectiveness is only
// meaningful against a static cell of the same workload, seed, and record
// budget.
type schemeGroupKey struct {
	Workload string
	Seed     int64
	Records  uint64
}

// runSchemes reads sweep manifests and prints the cross-scheme comparison:
// one row per cell with its DRAM latency, cache hit rate, η effectiveness
// against the manifest's static cell for the same (workload, seed,
// records), and the quad-core model's estimated IPC. Cells written before
// the manifest carried design/scheme fields render with both blank and get
// no η (their design is unrecoverable from the ledger alone).
func runSchemes(w io.Writer, paths []string, csvOut string) error {
	var entries []experiments.ManifestEntry
	for _, path := range paths {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		recs, err := experiments.ReadManifest(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		entries = append(entries, recs...)
	}
	if len(entries) == 0 {
		return fmt.Errorf("no manifest cells in %s", strings.Join(paths, ","))
	}

	// η baselines: the static cells (no migration design, default scheme).
	static := map[schemeGroupKey]float64{}
	for _, e := range entries {
		if e.Design == "" && e.Scheme == "" {
			static[schemeGroupKey{e.Workload, e.Seed, e.Records}] = e.Result.MeanDRAMLatency
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		if a.Records != b.Records {
			return a.Records < b.Records
		}
		if a.Scheme != b.Scheme {
			return a.Scheme < b.Scheme
		}
		return a.Design < b.Design
	})

	model := cpu.DefaultModel()
	t := stats.NewTable("Workload", "Design", "Scheme", "DRAM lat", "On-pkg share", "Hit rate", "Effectiveness", "Est. IPC")
	rows := [][]string{{"workload", "seed", "records", "design", "scheme", "mean_lat", "dram_lat", "on_share", "hit_rate", "effectiveness_pct", "est_ipc"}}
	for _, e := range entries {
		res := e.Result
		isStatic := e.Design == "" && e.Scheme == ""
		eta, hit := "", ""
		etaCSV, hitCSV := "", ""
		if base, ok := static[schemeGroupKey{e.Workload, e.Seed, e.Records}]; ok && !isStatic {
			v := sim.Effectiveness(base, res.MeanDRAMLatency, res.Report.MeanCoreLat)
			eta = fmt.Sprintf("%.1f%%", v)
			etaCSV = fmt.Sprintf("%.2f", v)
		}
		if res.Report.Scheme != nil {
			hit = fmt.Sprintf("%.3f", res.Report.Scheme.HitRate)
			hitCSV = fmt.Sprintf("%.4f", res.Report.Scheme.HitRate)
		}
		design, schemeName := e.Design, e.Scheme
		if isStatic {
			design, schemeName = "none", "static"
		} else if schemeName == "" && e.Design != "" {
			schemeName = "migrate"
		}
		ipc := model.EstimateIPC(res.MeanLatency)
		t.AddRow(e.Workload, design, schemeName,
			fmt.Sprintf("%.1f", res.MeanDRAMLatency),
			fmt.Sprintf("%.3f", res.Report.OnShare),
			hit, eta, fmt.Sprintf("%.3f", ipc))
		rows = append(rows, []string{
			e.Workload, strconv.FormatInt(e.Seed, 10), strconv.FormatUint(e.Records, 10),
			e.Design, e.Scheme,
			fmt.Sprintf("%.3f", res.MeanLatency),
			fmt.Sprintf("%.3f", res.MeanDRAMLatency),
			fmt.Sprintf("%.4f", res.Report.OnShare),
			hitCSV, etaCSV, fmt.Sprintf("%.4f", ipc),
		})
	}
	fmt.Fprintf(w, "Cross-scheme comparison from %s (%d cells)\n", strings.Join(paths, ","), len(entries))
	if _, err := io.WriteString(w, t.String()); err != nil {
		return err
	}
	if csvOut != "" {
		if err := writeCSV(csvOut, rows); err != nil {
			return err
		}
		fmt.Fprintf(w, "schemes CSV: %s\n", csvOut)
	}
	return nil
}

// run executes the full report: CSV files into dir, the human-readable
// measured-vs-paper summary onto w. When seriesWL names a workload, the
// report also includes its per-epoch effectiveness trajectory.
func run(ctx context.Context, w io.Writer, dir string, p experiments.Params, seriesWL string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	// Table IV with the paper comparison.
	rows, err := experiments.Table4Data(ctx, p)
	if err != nil {
		return err
	}
	t4 := [][]string{{"workload", "core_lat", "lat_static", "lat_migrated", "best_page", "best_interval", "effectiveness_pct", "paper_pct"}}
	var sum, paperSum float64
	for _, r := range rows {
		paper := experiments.PaperTable4[r.Workload]
		t4 = append(t4, []string{
			r.Workload,
			f(r.CoreLatency), f(r.LatNoMig), f(r.BestLatMig),
			strconv.FormatUint(r.BestPage, 10), strconv.FormatUint(r.BestInterval, 10),
			f(r.Effectiveness), f(paper),
		})
		sum += r.Effectiveness
		paperSum += paper
	}
	if err := writeCSV(filepath.Join(dir, "table4.csv"), t4); err != nil {
		return err
	}
	if n := len(rows); n > 0 {
		fmt.Fprintf(w, "Table IV average effectiveness: measured %.1f%%, paper %.1f%%\n",
			sum/float64(n), paperSum/float64(n))
		for _, r := range rows {
			fmt.Fprintf(w, "  %-9s measured %5.1f%%  paper %5.1f%%\n",
				r.Workload, r.Effectiveness, experiments.PaperTable4[r.Workload])
		}
	}

	// Fig. 11 (all three intervals) and Figs. 12-14.
	for _, iv := range experiments.Intervals {
		pts, err := experiments.Fig11Data(ctx, p, iv)
		if err != nil {
			return err
		}
		rows := [][]string{{"workload", "page_bytes", "design", "latency", "on_share", "swaps"}}
		for _, pt := range pts {
			rows = append(rows, []string{
				pt.Workload, strconv.FormatUint(pt.PageSize, 10), pt.Design.String(),
				f(pt.MeanLatency), f(pt.OnShare), strconv.FormatUint(pt.Swaps, 10),
			})
		}
		if err := writeCSV(filepath.Join(dir, fmt.Sprintf("fig11_interval%d.csv", iv)), rows); err != nil {
			return err
		}
	}

	// Fig. 15 capacity sensitivity.
	pts15, err := experiments.Fig15Data(ctx, p)
	if err != nil {
		return err
	}
	rows15 := [][]string{{"workload", "capacity_bytes", "core_lat", "lat_migrated", "lat_static"}}
	for _, pt := range pts15 {
		rows15 = append(rows15, []string{
			pt.Workload, strconv.FormatUint(pt.Capacity, 10),
			f(pt.CoreLat), f(pt.LatMig), f(pt.LatNoMig),
		})
	}
	if err := writeCSV(filepath.Join(dir, "fig15.csv"), rows15); err != nil {
		return err
	}

	// Fig. 16 power.
	pts16, err := experiments.Fig16Data(ctx, p)
	if err != nil {
		return err
	}
	rows16 := [][]string{{"workload", "page_bytes", "interval", "normalized_power"}}
	minPower := -1.0
	for _, pt := range pts16 {
		rows16 = append(rows16, []string{
			pt.Workload, strconv.FormatUint(pt.PageSize, 10),
			strconv.FormatUint(pt.Interval, 10), f(pt.Normalized),
		})
		if minPower < 0 || pt.Normalized < minPower {
			minPower = pt.Normalized
		}
	}
	if err := writeCSV(filepath.Join(dir, "fig16.csv"), rows16); err != nil {
		return err
	}
	fmt.Fprintf(w, "Fig. 16 minimum power overhead: measured %.2fx, paper ~%.1fx\n",
		minPower, experiments.PaperFig16MinOverhead)

	// Per-epoch effectiveness trajectory: how fast migration converges on
	// its end-of-run η, from the series sampler rather than the aggregate.
	if seriesWL != "" {
		if err := writeTrajectory(ctx, w, dir, p, seriesWL); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "CSV files written to %s\n", dir)
	return nil
}

// writeTrajectory emits epoch_series.csv plus a decimated stdout table of
// the per-epoch effectiveness trajectory.
func writeTrajectory(ctx context.Context, w io.Writer, dir string, p experiments.Params, name string) error {
	pts, err := experiments.EpochTrajectoryData(ctx, p, name)
	if err != nil {
		return err
	}
	rows := [][]string{{"workload", "epoch", "cycle", "final", "on_share", "p_stalls", "stall_cycles", "swaps_completed", "mean_dram_lat", "effectiveness_pct"}}
	for _, pt := range pts {
		rows = append(rows, []string{
			name,
			strconv.FormatUint(pt.Epoch, 10), strconv.FormatInt(pt.Cycle, 10),
			strconv.FormatBool(pt.Final), f(pt.OnShare),
			strconv.FormatUint(pt.PStalls, 10), strconv.FormatUint(pt.StallCycles, 10),
			strconv.FormatUint(pt.SwapsCompleted, 10),
			f(pt.MeanDRAMLat), f(pt.Effectiveness),
		})
	}
	if err := writeCSV(filepath.Join(dir, "epoch_series.csv"), rows); err != nil {
		return err
	}
	fmt.Fprintf(w, "Per-epoch effectiveness trajectory (%s, live, 4MB pages, interval %d):\n",
		name, experiments.TrajectoryInterval)
	fmt.Fprintf(w, "  %7s %12s %9s %6s %10s %7s\n", "epoch", "cycle", "on-share", "swaps", "mean-dram", "eta")
	// Decimate to at most 8 rows; the final reconciling sample always prints.
	step := 1
	if len(pts) > 8 {
		step = (len(pts) + 7) / 8
	}
	for i, pt := range pts {
		if i%step != 0 && i != len(pts)-1 {
			continue
		}
		label := strconv.FormatUint(pt.Epoch, 10)
		if pt.Final {
			label = "final"
		}
		fmt.Fprintf(w, "  %7s %12d %8.1f%% %6d %10.1f %6.1f%%\n",
			label, pt.Cycle, pt.OnShare*100, pt.SwapsCompleted, pt.MeanDRAMLat, pt.Effectiveness)
	}
	return nil
}

func f(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// writeCSV writes rows to a new file at path. The file's Close error is
// returned too: data the kernel fails to write back only at close must not
// pass as a success.
func writeCSV(path string, rows [][]string) error {
	fd, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := csv.NewWriter(fd).WriteAll(rows); err != nil {
		fd.Close()
		return err
	}
	return fd.Close()
}
