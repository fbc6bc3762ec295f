package heteromem

import (
	"fmt"
	"testing"

	"heteromem/internal/core"
	"heteromem/internal/dsweep"
	"heteromem/internal/memctrl"
	"heteromem/internal/scheme"
	"heteromem/internal/sim"
)

// TestEntryPointsShareOneRuleSet runs a grid of run configurations through
// every entry point that builds one: the sweep cell (dsweep.CellSpec, and
// through it experiments.CellConfig), the library (New) and the controller
// hub (memctrl.NewHub, whose controllers apply the scheme rule). Each must
// accept exactly the points sim.Config.Validate accepts.
func TestEntryPointsShareOneRuleSet(t *testing.T) {
	accepted, points := 0, 0
	for _, schemeName := range []string{"migrate", "alloy", "alloy-pred", "cachemode", "memcache", "memcache-pred:25"} {
		sp, err := scheme.Parse(schemeName)
		if err != nil {
			t.Fatal(err)
		}
		for _, design := range []string{"n", "n-1", "live", "none"} {
			d, migrates, err := core.ParseDesign(design)
			if err != nil {
				t.Fatal(err)
			}
			for _, audit := range []bool{false, true} {
				for _, interval := range []uint64{0, 1000} {
					for _, page := range []uint64{64 * KiB, 3000} {
						for _, channels := range []int{1, 2, 3} {
							name := fmt.Sprintf("%s/%s/audit=%v/interval=%d/page=%d/c%d", schemeName, design, audit, interval, page, channels)
							cfg := sim.Default()
							cfg.Geometry.MacroPageSize = page
							if migrates {
								cfg.Migration = &core.Options{Design: d, SwapInterval: interval}
							}
							cfg.Scheme, cfg.Audit, cfg.Channels = sp, audit, channels
							want := cfg.Validate() == nil
							points++
							if want {
								accepted++
							}
							agree := func(entry string, err error) {
								if (err == nil) != want {
									t.Errorf("%s: %s returned %v, Validate accepts: %v", name, entry, err, want)
								}
							}

							if !audit { // a sweep cell never audits
								agree("CellSpec.Validate", dsweep.CellSpec{
									Workload: "pgbench", Seed: 1, Design: design, Scheme: schemeName,
									PageSize: page, Interval: interval, Records: 10, Channels: channels,
								}.Validate())
							}
							_, err := New(Config{
								MacroPageSize: page,
								Migration:     Migration{Enabled: migrates, Design: d, SwapInterval: interval},
								Scheme:        schemeName, Channels: channels, Audit: audit,
							})
							agree("New", err)

							// The hub is built over a small space, which
							// changes no point's outcome.
							small := cfg
							small.Geometry.TotalCapacity, small.Geometry.OnPackageCapacity = 64*MiB, 8*MiB
							if got := small.Validate() == nil; got != want {
								t.Fatalf("%s: the small geometry changes Validate's outcome", name)
							}
							_, err = memctrl.NewHub(memctrl.Config{
								Geometry: small.Geometry, Latencies: small.Latencies,
								OffTiming: small.OffTiming, OnTiming: small.OnTiming,
								Migration: small.Migration, Scheme: sp, Audit: audit,
							}, memctrl.HubConfig{Channels: channels}, nil)
							agree("memctrl.NewHub", err)
						}
					}
				}
			}
		}
	}
	if accepted == 0 || accepted == points {
		t.Fatalf("Validate accepts %d of %d grid points; the grid tests nothing", accepted, points)
	}
}
