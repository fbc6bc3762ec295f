package memctrl

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"heteromem/internal/addr"
	"heteromem/internal/config"
	"heteromem/internal/core"
	"heteromem/internal/fault"
	"heteromem/internal/obs"
	"heteromem/internal/power"
)

// faultConfig is smallConfig with auditing on and the given fault campaign.
func faultConfig(mig *core.Options, fc fault.Config) Config {
	cfg := smallConfig()
	cfg.Migration = mig
	cfg.Audit = mig != nil
	cfg.Fault = fc
	return cfg
}

// hammerHot drives n accesses at a hot off-package page so migration has
// something to do; returns the final cycle fed to the controller.
func hammerHot(t *testing.T, ctrl *Controller, n int) int64 {
	t.Helper()
	hot := uint64(32 * addr.MiB)
	now := int64(0)
	for i := 0; i < n; i++ {
		now += 50
		if err := ctrl.Access(hot+uint64(i%64)*4096, i%3 == 0, now); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
	}
	return now
}

// checkLedger asserts the run ended clean with a balanced fault ledger.
func checkLedger(t *testing.T, ctrl *Controller) *fault.Report {
	t.Helper()
	ctrl.Flush()
	if err := ctrl.Err(); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	rep := ctrl.FaultReport()
	if rep == nil {
		t.Fatal("fault injection configured but FaultReport is nil")
	}
	if !rep.Balanced(rep.Injected) {
		t.Fatalf("ledger unbalanced: %+v", rep)
	}
	return rep
}

func TestZeroFaultConfigKeepsInjectorOff(t *testing.T) {
	// A zero-valued (and a seed-only) fault config must leave the injector
	// nil so every hot path and the report stay byte-identical.
	for _, fc := range []fault.Config{{}, {Seed: 99, RetryBudget: 5}} {
		ctrl, err := New(faultConfig(&core.Options{Design: core.DesignLive, SwapInterval: 500}, fc), nil)
		if err != nil {
			t.Fatal(err)
		}
		hammerHot(t, ctrl, 2000)
		ctrl.Flush()
		if err := ctrl.Err(); err != nil {
			t.Fatal(err)
		}
		if ctrl.FaultReport() != nil {
			t.Fatalf("config %+v produced a fault report", fc)
		}
		if report(ctrl).Faults != nil {
			t.Fatal("Report.Faults set without injection")
		}
	}
}

func TestDeviceFaultRetries(t *testing.T) {
	// One scheduled device fault, no budget pressure: the burst must be
	// retried and the access still delivered.
	var delivered int
	ctrl, err := New(faultConfig(
		&core.Options{Design: core.DesignLive, SwapInterval: 1 << 30},
		fault.Config{Schedule: "device@1"},
	), func(AccessResult) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Access(32*addr.MiB, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Access(32*addr.MiB, false, 1_000_000); err != nil {
		t.Fatal(err)
	}
	rep := checkLedger(t, ctrl)
	if delivered != 2 {
		t.Fatalf("delivered %d accesses, want 2", delivered)
	}
	if rep.Injected != 1 || rep.DeviceFaults != 1 || rep.Retried != 1 {
		t.Fatalf("want 1 retried device fault, got %+v", rep)
	}
}

func TestDeviceRetryChargesLatency(t *testing.T) {
	// The faulted burst plus backoff must show up in the access latency.
	lat := func(fc fault.Config) int64 {
		var res AccessResult
		ctrl, err := New(faultConfig(nil, fc), func(r AccessResult) { res = r })
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Access(32*addr.MiB, false, 0); err != nil {
			t.Fatal(err)
		}
		ctrl.Flush()
		if err := ctrl.Err(); err != nil {
			t.Fatal(err)
		}
		return res.Latency()
	}
	clean := lat(fault.Config{})
	faulted := lat(fault.Config{Schedule: "device@1", RetryBackoff: 512})
	if faulted <= clean+512 {
		t.Fatalf("retry cost not charged: clean=%d faulted=%d", clean, faulted)
	}
}

func TestStalledSwapRollsBack(t *testing.T) {
	// DesignN copies synchronously; four consecutive copy faults exhaust
	// the default retry budget (3) on the first leg and force a rollback.
	ctrl, err := New(faultConfig(
		&core.Options{Design: core.DesignN, SwapInterval: 200},
		fault.Config{Schedule: "copy@1-4"},
	), nil)
	if err != nil {
		t.Fatal(err)
	}
	hammerHot(t, ctrl, 4000)
	rep := checkLedger(t, ctrl)
	if rep.SwapsRolledBack != 1 {
		t.Fatalf("want exactly 1 rolled-back swap, got %+v", rep)
	}
	if rep.Retried != 3 || rep.RolledBack != 1 {
		t.Fatalf("want 3 retried + 1 rolled-back copy faults, got %+v", rep)
	}
	// The aborted swap must not have poisoned the pipeline: later epochs
	// retry the migration and complete it.
	if ctrl.Migrator().Stats().SwapsCompleted == 0 {
		t.Fatal("no swap completed after the rollback")
	}
	if err := ctrl.Migrator().Table().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBackgroundSwapRollsBack(t *testing.T) {
	// N-1 runs swaps in the background with many sub-block legs in flight;
	// faults spread across legs, so every early copy probe must fault for
	// one leg to exhaust its budget. The swap then rolls back and the
	// rollback completes: no fault is booked as Degraded and the controller
	// stays out of degraded mode. TestBackgroundUndoFaultsDegrade covers
	// an abandoned undo.
	ctrl, err := New(faultConfig(
		&core.Options{Design: core.DesignN1, SwapInterval: 200},
		fault.Config{Schedule: "copy@1-2000"},
	), nil)
	if err != nil {
		t.Fatal(err)
	}
	hammerHot(t, ctrl, 4000)
	rep := checkLedger(t, ctrl)
	if rep.SwapsRolledBack == 0 {
		t.Fatalf("saturated copy faults did not roll the swap back: %+v", rep)
	}
	if err := ctrl.Migrator().Table().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStalledUndoFaultsDegrade(t *testing.T) {
	// Deepest escalation: the first copy leg lands (probe 1 clean), the
	// next leg exhausts its retries (probes 2-5) forcing a rollback, and
	// the undo copy of the landed data exhausts its retries too (probes
	// 6-9). The rollback is abandoned: the table snapshot is still
	// restored and migration freezes.
	ctrl, err := New(faultConfig(
		&core.Options{Design: core.DesignN, SwapInterval: 200},
		fault.Config{Schedule: "copy@2-9"},
	), nil)
	if err != nil {
		t.Fatal(err)
	}
	hammerHot(t, ctrl, 4000)
	rep := checkLedger(t, ctrl)
	if rep.SwapsRolledBack != 1 {
		t.Fatalf("want 1 rolled-back swap, got %+v", rep)
	}
	if !rep.DegradedMode {
		t.Fatalf("abandoned undo did not degrade: %+v", rep)
	}
	if err := ctrl.Migrator().Table().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStalledUndoCopyIsBooked(t *testing.T) {
	// The first copy lands (probe 1 clean), the second exhausts its retries
	// (probes 2-5) and rolls the swap back, and the undo copy of the first
	// lands. Every landed copy, the undo included, must be traced and
	// metered: each leaves one copy-write span, and since every N-design
	// copy is an exchange, the meter's migration traffic is 32 bits (8 bits,
	// both directions, read and write side) per counted copy byte.
	cfg := faultConfig(
		&core.Options{Design: core.DesignN, SwapInterval: 200},
		fault.Config{Schedule: "copy@2-5"},
	)
	cfg.Power = power.NewMeter(config.PaperPower())
	cfg.Obs = obs.NewRegistry()
	cfg.Obs.EnableSpans(1 << 16)
	ctrl, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hammerHot(t, ctrl, 4000)
	if rep := checkLedger(t, ctrl); rep.SwapsRolledBack != 1 || rep.RolledBack != 1 {
		t.Fatalf("want 1 rolled-back swap, got %+v", rep)
	}
	counters := cfg.Obs.Snapshot().Counters
	var writes uint64
	for _, s := range cfg.Obs.Spans().Spans() {
		if s.Kind == obs.SpanCopyWrite {
			writes++
		}
	}
	if subs := counters["memctrl.copy.sub_blocks"]; writes != subs {
		t.Errorf("%d copy-write spans for %d counted copies", writes, subs)
	}
	_, _, on, off := cfg.Power.TrafficBits()
	if bytes := counters["memctrl.copy.bytes"]; on+off != 32*float64(bytes) {
		t.Errorf("metered %v copy bits for %d counted copy bytes, want %v", on+off, bytes, 32*float64(bytes))
	}
}

func TestBackgroundUndoFaultsDegrade(t *testing.T) {
	// The background designs' deepest escalation: a forward leg exhausts
	// its retries and rolls the swap back, then the undo copies keep
	// faulting until one exhausts its retries too. The rollback is
	// abandoned: the table snapshot is still restored, migration freezes,
	// and the rollback span carries the abandoned marker (B=1).
	for _, d := range []core.Design{core.DesignN1, core.DesignLive} {
		t.Run(d.String(), func(t *testing.T) {
			cfg := faultConfig(
				&core.Options{Design: d, SwapInterval: 200},
				fault.Config{Schedule: "copy@130-150"},
			)
			cfg.Obs = obs.NewRegistry()
			cfg.Obs.EnableSpans(1 << 16)
			ctrl, err := New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			hammerHot(t, ctrl, 4000)
			rep := checkLedger(t, ctrl)
			if rep.SwapsRolledBack != 1 || !rep.DegradedMode {
				t.Fatalf("want 1 rolled-back swap and degraded mode, got %+v", rep)
			}
			if err := ctrl.Migrator().Table().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			var rollbacks []obs.Span
			for _, s := range cfg.Obs.Spans().Spans() {
				if s.Kind == obs.SpanRollback {
					rollbacks = append(rollbacks, s)
				}
			}
			if len(rollbacks) != 1 || rollbacks[0].B != 1 {
				t.Fatalf("want one abandoned rollback span, got %+v", rollbacks)
			}
		})
	}
}

func TestSlotRetirement(t *testing.T) {
	// Two faults on the same on-package frame with RetireAfter=2: the slot
	// must be retired and its page exiled to a spare frame past Ω.
	var last AccessResult
	ctrl, err := New(faultConfig(
		&core.Options{Design: core.DesignN1, SwapInterval: 1 << 30},
		fault.Config{Schedule: "device@1-2", RetireAfter: 2},
	), func(r AccessResult) { last = r })
	if err != nil {
		t.Fatal(err)
	}
	// First access faults twice (original + retry) on frame 0 and queues
	// the retirement; the next access executes it at a quiescent point.
	if err := ctrl.Access(0, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Access(0, false, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Access(0, false, 2_000_000); err != nil {
		t.Fatal(err)
	}
	rep := checkLedger(t, ctrl)
	if rep.SlotsRetired != 1 || rep.Retired != 1 {
		t.Fatalf("want 1 retired slot (1 Retired disposition), got %+v", rep)
	}
	tab := ctrl.Migrator().Table()
	if !tab.Retired(0) {
		t.Fatal("slot 0 not marked retired")
	}
	spare, ok := tab.ExiledTo(0)
	if !ok || spare <= tab.Omega() {
		t.Fatalf("page 0 not exiled past Ω: spare=%d ok=%v", spare, ok)
	}
	// The exiled page stays reachable, now off-package.
	if last.Region != OffPackage {
		t.Fatal("access to exiled page not routed off-package")
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDegradedModeFreezesMigration(t *testing.T) {
	// DegradeBudget=1: the very first fault freezes migration for good.
	ctrl, err := New(faultConfig(
		&core.Options{Design: core.DesignLive, SwapInterval: 200},
		fault.Config{Schedule: "device@1", DegradeBudget: 1},
	), nil)
	if err != nil {
		t.Fatal(err)
	}
	hammerHot(t, ctrl, 4000)
	rep := checkLedger(t, ctrl)
	if !rep.DegradedMode {
		t.Fatalf("controller not degraded: %+v", rep)
	}
	if rep.Degraded == 0 {
		t.Fatalf("no fault accounted as Degraded: %+v", rep)
	}
	st := ctrl.Migrator().Stats()
	if st.SwapsStarted != 0 {
		t.Fatalf("degraded mode still started %d swaps", st.SwapsStarted)
	}
	if !ctrl.Migrator().Degraded() {
		t.Fatal("migrator not frozen")
	}
}

func TestFaultRatesAcrossDesigns(t *testing.T) {
	// Probabilistic campaign over every design: whatever mix of retries,
	// rollbacks, retirements, and degradation results, the run must finish
	// without error, with a balanced ledger and an intact table.
	for _, d := range []core.Design{core.DesignN, core.DesignN1, core.DesignLive} {
		t.Run(d.String(), func(t *testing.T) {
			ctrl, err := New(faultConfig(
				&core.Options{Design: d, SwapInterval: 200},
				fault.Config{Seed: 7, DeviceRate: 2e-4, CopyRate: 2e-3, BulkRate: 2e-3, DegradeBudget: 200},
			), nil)
			if err != nil {
				t.Fatal(err)
			}
			hammerHot(t, ctrl, 20000)
			rep := checkLedger(t, ctrl)
			if rep.Injected == 0 {
				t.Fatal("campaign injected nothing")
			}
			if err := ctrl.Migrator().Table().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestErrLatchesFirstFailure(t *testing.T) {
	ctrl, err := New(smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	first := errors.New("first failure")
	ctrl.fail(first)
	ctrl.fail(errors.New("second failure"))
	if got := ctrl.Err(); got != first {
		t.Fatalf("Err() = %v, want the first failure", got)
	}
	// The latched error also short-circuits Access.
	if err := ctrl.Access(0, false, 0); err != first {
		t.Fatalf("Access after failure = %v, want the latched error", err)
	}
}

func TestFlushRejectsInFlightSwap(t *testing.T) {
	for _, fc := range []fault.Config{{}, {Schedule: "device@1"}} {
		t.Run(fmt.Sprintf("fault=%v", fc.Enabled()), func(t *testing.T) {
			ctrl, err := New(faultConfig(
				&core.Options{Design: core.DesignN1, SwapInterval: 100},
				fc,
			), nil)
			if err != nil {
				t.Fatal(err)
			}
			// Feed some real traffic first so a faulted variant has probes.
			if err := ctrl.Access(32*addr.MiB, false, 0); err != nil {
				t.Fatal(err)
			}
			// Start a swap behind the controller's back: the migrator has a
			// plan in flight but the controller holds none of its copy legs,
			// so the flush can never drain it.
			mig := ctrl.Migrator()
			hot := uint64(32 * addr.MiB)
			var subs []core.SubCopy
			for i := 0; subs == nil && i < 1000; i++ {
				mig.OnAccess(hot, false)
				subs = mig.EpochTick()
			}
			if subs == nil {
				t.Fatal("could not provoke a swap plan")
			}
			ctrl.Flush()
			err = ctrl.Err()
			if err == nil || !strings.Contains(err.Error(), "swap still in flight") {
				t.Fatalf("flush with orphaned swap returned %v", err)
			}
		})
	}
}
