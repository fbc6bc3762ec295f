package experiments

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"heteromem/internal/addr"
	"heteromem/internal/core"
)

// quickParams shrinks every experiment to smoke-test size.
func quickParams() Params {
	return Params{Records: 40000, Warmup: 20000, Seed: 1, Workloads: []string{"pgbench"}}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4",
		"fig4", "fig5", "fig10",
		"fig11a", "fig11b", "fig11c",
		"fig12", "fig13", "fig14", "fig15", "fig16",
		"schemes",
	}
	reg := Registry()
	for _, name := range want {
		if _, ok := reg[name]; !ok {
			t.Errorf("experiment %q missing from registry", name)
		}
	}
	if len(Names()) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(Names()), len(want))
	}
}

func TestTables(t *testing.T) {
	for _, name := range []string{"table1", "table2", "table3", "fig10"} {
		var buf bytes.Buffer
		if err := Registry()[name](context.Background(), &buf, Params{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", name)
		}
	}
}

func TestFig10MatchesPaperReference(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig10(context.Background(), &buf, Params{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "9228") {
		t.Fatalf("Fig. 10 output missing the paper's 9,228-bit reference point:\n%s", buf.String())
	}
}

func TestFig4Shape(t *testing.T) {
	p := Params{Records: 150000, Seed: 1, Workloads: []string{"EP.C", "FT.C"}}
	points, err := Fig4Data(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*len(Fig4Capacities) {
		t.Fatalf("%d points", len(points))
	}
	// Miss rate must be non-increasing in capacity for each workload.
	byWL := map[string][]Fig4Point{}
	for _, pt := range points {
		byWL[pt.Workload] = append(byWL[pt.Workload], pt)
	}
	for wl, pts := range byWL {
		for i := 1; i < len(pts); i++ {
			if pts[i].MissRate > pts[i-1].MissRate+0.02 {
				t.Errorf("%s: miss rate rose from %.3f to %.3f with more capacity",
					wl, pts[i-1].MissRate, pts[i].MissRate)
			}
		}
	}
	// EP.C (16 MB footprint) must have a much lower large-cache miss rate
	// than FT.C (5 GB footprint).
	ep := byWL["EP.C"][len(Fig4Capacities)-1].MissRate
	ft := byWL["FT.C"][len(Fig4Capacities)-1].MissRate
	if ep >= ft {
		t.Errorf("EP.C miss rate %.3f >= FT.C %.3f at 1GB LLC", ep, ft)
	}
}

func TestFig5Shape(t *testing.T) {
	p := Params{Records: 150000, Seed: 1, Workloads: []string{"EP.C", "FT.C"}}
	rows, err := Fig5Data(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		_, _, all := r.Improvement()
		if all < 0 {
			t.Errorf("%s: ideal all-on-chip slower than baseline (%.1f%%)", r.Workload, all)
		}
		if r.AllOn.IPC < r.Static.IPC-1e-9 {
			t.Errorf("%s: static beats the ideal", r.Workload)
		}
	}
}

// TestFig5HonoursContext: a cancelled sweep returns the context's error
// instead of running every workload to completion.
func TestFig5HonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := Fig5Data(ctx, Params{Records: 150000, Seed: 1, Workloads: []string{"EP.C", "FT.C"}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Fig. 5: %d rows, err = %v, want context.Canceled", len(rows), err)
	}
}

func TestFig11DesignOrdering(t *testing.T) {
	// At 4 MB granularity with frequent swapping, N must not beat Live
	// (the stall cost dominates), reproducing the Fig. 11 headline.
	p := Params{Records: 300000, Warmup: 100000, Seed: 1, Workloads: []string{"SPEC2006"}}
	points, err := Fig11Data(context.Background(), p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	lat := map[core.Design]float64{}
	for _, pt := range points {
		if pt.PageSize == 4*addr.MiB {
			lat[pt.Design] = pt.MeanLatency
		}
	}
	if lat[core.DesignN] < lat[core.DesignLive] {
		t.Errorf("N (%.1f) beat Live (%.1f) at 4MB/1K — stall cost missing",
			lat[core.DesignN], lat[core.DesignLive])
	}
}

func TestTable4Effectiveness(t *testing.T) {
	p := Params{Records: 600000, Warmup: 400000, Seed: 1, Workloads: []string{"SPEC2006"}}
	rows, err := Table4Data(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r.BestLatMig > r.LatNoMig {
		t.Errorf("best migrated latency %.1f above static %.1f", r.BestLatMig, r.LatNoMig)
	}
	if r.Effectiveness <= 0 || r.Effectiveness > 100 {
		t.Errorf("effectiveness %.1f out of range", r.Effectiveness)
	}
}

func TestFig15CapacityMonotonic(t *testing.T) {
	p := Params{Records: 300000, Warmup: 150000, Seed: 1, Workloads: []string{"SPEC2006"}}
	points, err := Fig15Data(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(Fig15Capacities) {
		t.Fatalf("%d points", len(points))
	}
	for _, pt := range points {
		if pt.LatMig > pt.LatNoMig {
			t.Errorf("%s@%d: migration made latency worse (%.1f > %.1f)",
				pt.Workload, pt.Capacity, pt.LatMig, pt.LatNoMig)
		}
	}
	// At full experiment scale more capacity helps (EXPERIMENTS.md); at
	// smoke scale only the against-static invariant above is stable.
}

func TestFig16PowerAboveOne(t *testing.T) {
	p := quickParams()
	points, err := Fig16Data(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if pt.Normalized <= 0 {
			t.Errorf("%s %s/%d: normalized power %.2f",
				pt.Workload, sizeLabel(pt.PageSize), pt.Interval, pt.Normalized)
		}
	}
	// Frequent swapping must cost at least as much power as infrequent
	// swapping at the same granularity.
	byIv := map[uint64]float64{}
	for _, pt := range points {
		if pt.PageSize == 64*addr.KiB {
			byIv[pt.Interval] = pt.Normalized
		}
	}
	if byIv[1000] < byIv[100000]-0.05 {
		t.Errorf("power at 1K interval (%.2f) below 100K interval (%.2f)", byIv[1000], byIv[100000])
	}
}

func TestRunnersRenderOutput(t *testing.T) {
	p := quickParams()
	for _, name := range []string{"fig12", "fig15", "fig16"} {
		var buf bytes.Buffer
		if err := Registry()[name](context.Background(), &buf, p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(buf.String(), "pgbench") {
			t.Fatalf("%s output missing workload row:\n%s", name, buf.String())
		}
	}
}

// TestParamsWorkloadsFilter: a driver keeps the filter's names of its own
// kind, in the filter's order, and its full list when there is no filter.
func TestParamsWorkloadsFilter(t *testing.T) {
	def := []string{"FT", "MG", "pgbench", "SPEC2006"}
	for _, tc := range []struct {
		filter, want []string
	}{
		{nil, def},
		{[]string{"SPEC2006", "EP.C", "FT"}, []string{"SPEC2006", "FT"}},
		{[]string{"EP.C", "FT.C"}, nil},
	} {
		if got := (Params{Workloads: tc.filter}).workloads(def); !slices.Equal(got, tc.want) {
			t.Errorf("filter %v: workloads %v, want %v", tc.filter, got, tc.want)
		}
	}
}
