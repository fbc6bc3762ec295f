package sim

import (
	"testing"

	"heteromem/internal/addr"
	"heteromem/internal/config"
	"heteromem/internal/core"
	"heteromem/internal/obs"
	"heteromem/internal/trace"
	"heteromem/internal/workload"
)

// smallGeometry shrinks the memory space so tests run fast: 64 MB total,
// 8 MB on-package, 256 KB macro pages.
func smallGeometry() config.MemoryGeometry {
	g := config.TraceGeometry()
	g.TotalCapacity = 64 * addr.MiB
	g.OnPackageCapacity = 8 * addr.MiB
	g.MacroPageSize = 256 * addr.KiB
	return g
}

// skewedSource builds a workload with a hot set that misses the static
// on-package region: all traffic on a 4 MB region starting at 32 MB.
func skewedSource(n uint64, seed int64) (trace.Source, error) {
	spec := workload.Spec{
		Name: "skewed", MeanGap: 60, Cores: 4,
		Components: []workload.Component{
			{Name: "cold-prefix", Weight: 1, Region: 32 * addr.MiB,
				Make: workload.SeqMaker(64)},
			{Name: "hot", Weight: 19, Region: 4 * addr.MiB,
				Make: workload.ZipfMaker(4096, 1.2, false)},
		},
	}
	g, err := workload.New(spec, seed)
	if err != nil {
		return nil, err
	}
	return trace.NewLimit(g, n), nil
}

func run(t *testing.T, mig *core.Options, n uint64) Result {
	t.Helper()
	src, err := skewedSource(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.Geometry = smallGeometry()
	cfg.Migration = mig
	cfg.MeterPower = true
	res, err := Run(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != n {
		t.Fatalf("processed %d records, want %d", res.Records, n)
	}
	return res
}

func TestStaticMappingRoutesBySplit(t *testing.T) {
	res := run(t, nil, 20000)
	// The hot region sits above the 8 MB split: most accesses must be
	// off-package under static mapping.
	if res.Report.OnShare > 0.5 {
		t.Fatalf("static mapping on-package share = %.2f, want < 0.5", res.Report.OnShare)
	}
	if res.MeanLatency <= 0 {
		t.Fatalf("mean latency %.1f not positive", res.MeanLatency)
	}
}

func TestMigrationBeatsStaticOnSkewedWorkload(t *testing.T) {
	const n = 60000
	static := run(t, nil, n)
	for _, design := range []core.Design{core.DesignN1, core.DesignLive} {
		mig := run(t, &core.Options{Design: design, SwapInterval: 2000}, n)
		if mig.Report.Migration.SwapsCompleted == 0 {
			t.Fatalf("%v: no swaps completed", design)
		}
		if mig.MeanLatency >= static.MeanLatency {
			t.Fatalf("%v: migration latency %.1f not better than static %.1f",
				design, mig.MeanLatency, static.MeanLatency)
		}
		if mig.Report.OnShare <= static.Report.OnShare {
			t.Fatalf("%v: on-package share %.2f did not improve over static %.2f",
				design, mig.Report.OnShare, static.Report.OnShare)
		}
	}
}

func TestMigrationPowerIncludesCopyTraffic(t *testing.T) {
	mig := run(t, &core.Options{Design: core.DesignLive, SwapInterval: 2000}, 40000)
	if mig.EnergyPJ <= 0 {
		t.Fatal("no energy accounted")
	}
	// Migration keeps most traffic on-package, so total power should drop
	// below the off-package-only baseline unless copies dominate.
	if mig.NormalizedPower <= 0 {
		t.Fatalf("normalized power %.2f not positive", mig.NormalizedPower)
	}
}

func TestEffectivenessMetric(t *testing.T) {
	// Perfect migration: latency reaches the core latency -> 100%.
	if got := Effectiveness(200, 60, 60); got != 100 {
		t.Fatalf("Effectiveness(200,60,60) = %.1f, want 100", got)
	}
	// No improvement -> 0%.
	if got := Effectiveness(200, 200, 60); got != 0 {
		t.Fatalf("Effectiveness(200,200,60) = %.1f, want 0", got)
	}
	// Degenerate denominator -> 0.
	if got := Effectiveness(60, 50, 60); got != 0 {
		t.Fatalf("Effectiveness with no headroom = %.1f, want 0", got)
	}
}

func TestDesignNStallsExecution(t *testing.T) {
	const n = 40000
	nDesign := run(t, &core.Options{Design: core.DesignN, SwapInterval: 2000}, n)
	live := run(t, &core.Options{Design: core.DesignLive, SwapInterval: 2000}, n)
	if nDesign.Report.Migration.SwapsCompleted == 0 {
		t.Fatal("N design completed no swaps")
	}
	// With frequent swapping at coarse granularity the stalling N design
	// must be slower than live migration (the paper's Fig. 11 point).
	if nDesign.MeanLatency <= live.MeanLatency {
		t.Fatalf("N design latency %.1f not worse than live %.1f",
			nDesign.MeanLatency, live.MeanLatency)
	}
}

// TestConvergenceSeries checks through the epoch series that migration
// pulls the hot set on-package: the on-package share of the accesses in the
// last fifth of the monitoring epochs beats that of the first fifth, and
// the cumulative swap count never decreases.
func TestConvergenceSeries(t *testing.T) {
	const records, interval = 60000, 2000
	src, err := skewedSource(records, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.Geometry = smallGeometry()
	cfg.Migration = &core.Options{Design: core.DesignLive, SwapInterval: interval}
	cfg.EpochSeries = records/interval + 1
	res, err := Run(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SeriesDropped != 0 {
		t.Fatalf("%d samples dropped from a ring sized for the whole run", res.SeriesDropped)
	}
	s := res.Series
	epochs := len(s) - 1 // the last sample is the flush-time one
	if epochs != records/interval || !s[epochs].Final {
		t.Fatalf("%d samples (final=%v), want %d epochs plus the flush-time sample",
			len(s), s[len(s)-1].Final, records/interval)
	}
	// share is the on-package share of the accesses routed between two
	// cumulative samples.
	share := func(from, to obs.EpochSample) float64 {
		on := to.AccOn - from.AccOn
		return float64(on) / float64(on+to.AccOff-from.AccOff)
	}
	fifth := epochs / 5
	first := share(obs.EpochSample{}, s[fifth-1])
	last := share(s[epochs-fifth-1], s[epochs-1])
	if last <= first {
		t.Fatalf("on-share did not converge upward: first fifth %.2f, last fifth %.2f", first, last)
	}
	for i := 1; i < len(s); i++ {
		if s[i].SwapsCompleted < s[i-1].SwapsCompleted {
			t.Fatalf("swap count decreased from %d to %d at sample %d",
				s[i-1].SwapsCompleted, s[i].SwapsCompleted, i)
		}
	}
}

type failingSource struct{ n int }

func (f *failingSource) Next() (trace.Record, error) {
	if f.n >= 3 {
		return trace.Record{}, errInjected
	}
	f.n++
	return trace.Record{Cycle: uint64(f.n) * 10, Addr: uint64(f.n) * 64}, nil
}

var errInjected = &injectedError{}

type injectedError struct{}

func (*injectedError) Error() string { return "injected trace failure" }

func TestRunPropagatesSourceErrors(t *testing.T) {
	cfg := Default()
	cfg.Geometry = smallGeometry()
	_, err := Run(&failingSource{}, cfg)
	if err == nil {
		t.Fatal("source error swallowed")
	}
}

func TestOutOfRangeAddressesServedOffPackage(t *testing.T) {
	// Addresses beyond TotalCapacity (e.g. a trace wider than the simulated
	// memory) are identity-mapped off-package rather than rejected, like a
	// controller forwarding to a larger physical space.
	cfg := Default()
	cfg.Geometry = smallGeometry()
	cfg.Migration = &core.Options{Design: core.DesignLive, SwapInterval: 1000}
	recs := []trace.Record{
		{Cycle: 10, Addr: cfg.Geometry.TotalCapacity + 4096},
		{Cycle: 50, Addr: cfg.Geometry.TotalCapacity * 2},
	}
	res, err := Run(trace.NewSliceSource(recs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 2 || res.Report.OnShare != 0 {
		t.Fatalf("out-of-range accesses mishandled: %+v", res.Report.OnShare)
	}
}
