package memctrl

import (
	"strings"
	"testing"

	"heteromem/internal/addr"
	"heteromem/internal/config"
	"heteromem/internal/core"
	"heteromem/internal/power"
)

func smallConfig() Config {
	g := config.TraceGeometry()
	g.TotalCapacity = 64 * addr.MiB
	g.OnPackageCapacity = 8 * addr.MiB
	g.MacroPageSize = 256 * addr.KiB
	return Config{
		Geometry:  g,
		Latencies: config.TableIILatencies(),
		OffTiming: config.OffPackageTiming(),
		OnTiming:  config.OnPackageTiming(),
	}
}

// report folds one controller's statistics the way a run reports them:
// through a one-shard hub.
func report(c *Controller) Report { return (&Hub{ctrls: []*Controller{c}}).Report() }

func TestStaticRouting(t *testing.T) {
	var results []AccessResult
	ctrl, err := New(smallConfig(), func(r AccessResult) { results = append(results, r) })
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Access(4096, false, 0); err != nil { // below 8MB: on-package
		t.Fatal(err)
	}
	if err := ctrl.Access(32*addr.MiB, false, 100); err != nil { // above: off
		t.Fatal(err)
	}
	ctrl.Flush()
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	if results[0].Region != OnPackage || results[1].Region != OffPackage {
		t.Fatalf("routing wrong: %v, %v", results[0].Region, results[1].Region)
	}
	if results[0].Latency() >= results[1].Latency() {
		t.Fatalf("on-package %d not faster than off-package %d",
			results[0].Latency(), results[1].Latency())
	}
}

func TestLatencyComposition(t *testing.T) {
	var res AccessResult
	cfg := smallConfig()
	ctrl, err := New(cfg, func(r AccessResult) { res = r })
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Access(32*addr.MiB, false, 0)
	ctrl.Flush()
	// Unloaded off-package access: fixed path + activation + CAS + burst.
	tm := cfg.OffTiming
	want := cfg.Latencies.OffPackageFixed() + tm.TRCD + tm.TCL + tm.TBurst
	if res.Latency() != want {
		t.Fatalf("unloaded off-package latency = %d, want %d", res.Latency(), want)
	}
}

func TestTranslationLookupCharged(t *testing.T) {
	// With migration, every access pays the 2-cycle RAM+CAM lookup.
	var lat [2]int64
	for i, mig := range []*core.Options{nil, {Design: core.DesignN1, SwapInterval: 1 << 30}} {
		cfg := smallConfig()
		cfg.Migration = mig
		var res AccessResult
		ctrl, err := New(cfg, func(r AccessResult) { res = r })
		if err != nil {
			t.Fatal(err)
		}
		ctrl.Access(4096, false, 0)
		ctrl.Flush()
		lat[i] = res.Latency()
	}
	if lat[1]-lat[0] != smallConfig().Latencies.TranslationLookup {
		t.Fatalf("translation lookup not charged: %d vs %d", lat[0], lat[1])
	}
}

func TestMigrationEndToEnd(t *testing.T) {
	cfg := smallConfig()
	cfg.Migration = &core.Options{Design: core.DesignLive, SwapInterval: 500}
	cfg.Power = power.NewMeter(config.PaperPower())
	ctrl, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Hammer one off-package page.
	hot := uint64(32 * addr.MiB)
	now := int64(0)
	for i := 0; i < 20000; i++ {
		now += 50
		if err := ctrl.Access(hot+uint64(i%4096)*64%262144, i%3 == 0, now); err != nil {
			t.Fatal(err)
		}
	}
	ctrl.Flush()
	rep := report(ctrl)
	if rep.Migration.SwapsCompleted == 0 {
		t.Fatal("no swaps completed")
	}
	if rep.OnShare < 0.5 {
		t.Fatalf("hot page not captured: on-share %.2f", rep.OnShare)
	}
	if rep.Migration.BytesCopied == 0 {
		t.Fatal("no copy traffic accounted")
	}
	// Copy traffic must show up in the power meter.
	_, _, cOn, cOff := cfg.Power.TrafficBits()
	if cOn == 0 || cOff == 0 {
		t.Fatalf("copy power not metered: on=%f off=%f", cOn, cOff)
	}
	if mg := ctrl.Migrator(); mg == nil || mg.Table().CheckInvariants() != nil {
		t.Fatal("migrator table invariants violated")
	}
}

func TestOSAssistedChargesEpochOverhead(t *testing.T) {
	run := func(osAssisted bool) float64 {
		cfg := smallConfig()
		cfg.Migration = &core.Options{Design: core.DesignN1, SwapInterval: 100}
		cfg.OSAssisted = osAssisted
		ctrl, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		now := int64(0)
		for i := 0; i < 5000; i++ {
			now += 60
			ctrl.Access(uint64(i%100)*4096, false, now)
		}
		ctrl.Flush()
		return report(ctrl).All.Mean()
	}
	hw, os := run(false), run(true)
	if os <= hw {
		t.Fatalf("OS-assisted mean %.1f not above pure-hardware %.1f", os, hw)
	}
}

func TestResetStats(t *testing.T) {
	ctrl, err := New(smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Access(0, false, 0)
	ctrl.Flush()
	if report(ctrl).All.Count() != 1 {
		t.Fatal("access not counted")
	}
	ctrl.ResetStats()
	if report(ctrl).All.Count() != 0 {
		t.Fatal("stats survive reset")
	}
}

func TestInvalidGeometryRejected(t *testing.T) {
	cfg := smallConfig()
	cfg.Geometry.MacroPageSize = 3 * addr.MiB
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

// TestDeviceErrorNamesRegion: a device the geometry cannot build is
// reported with the region it belongs to.
func TestDeviceErrorNamesRegion(t *testing.T) {
	for _, tc := range []struct {
		set  func(*Config)
		want string
	}{
		{func(c *Config) { c.Geometry.OnChannels = 3 }, "memctrl: on-package device: dram: channel count 3"},
		{func(c *Config) { c.Geometry.OffBanksPerCh = 6 }, "memctrl: off-package device: dram: bank count 6"},
	} {
		cfg := smallConfig()
		tc.set(&cfg)
		if _, err := New(cfg, nil); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("New: err = %v, want prefix %q", err, tc.want)
		}
	}
}

func TestDRAMLatencySplit(t *testing.T) {
	ctrl, err := New(smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Access(32*addr.MiB, false, 0)
	ctrl.Flush()
	rep := report(ctrl)
	if rep.DRAMAll.Count() != 1 {
		t.Fatal("DRAM latency not recorded")
	}
	// The DRAM-internal latency excludes the fixed wire path.
	if rep.DRAMAll.Mean() >= rep.All.Mean() {
		t.Fatalf("DRAM latency %.1f not below end-to-end %.1f",
			rep.DRAMAll.Mean(), rep.All.Mean())
	}
}
