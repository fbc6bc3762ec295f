package heteromem_test

import (
	"fmt"
	"testing"

	"heteromem"
)

// ladderFaults is a fault campaign dense enough to walk the whole
// escalation ladder in a short run: a one-retry budget turns most repeated
// copy faults into rollbacks, and the bulk rate faults step completions
// often.
func ladderFaults(retireAfter int) heteromem.FaultConfig {
	return heteromem.FaultConfig{
		Seed: 7, DeviceRate: 1e-3, CopyRate: 1e-2, BulkRate: 0.2,
		RetryBudget: 1, RetireAfter: retireAfter, DegradeBudget: 2000,
	}
}

// TestSwapAbortInsideReentrantDrain is a regression test: a step's read
// legs are enqueued one at a time, and each submit may drain the scheduler
// reentrantly (always during Flush). A leg drained there that exhausts its
// retry budget aborts the step; the legs the issuing loop had not yet
// enqueued must not be issued under the rollback's step (or none), where
// their completion dereferenced a nil step.
func TestSwapAbortInsideReentrantDrain(t *testing.T) {
	sys, err := heteromem.New(heteromem.Config{
		Migration: heteromem.Migration{Enabled: true, Design: heteromem.DesignN1, SwapInterval: 1000},
		Fault:     ladderFaults(1000),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunWorkload("pgbench", 1, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Faults
	if f == nil || !f.Balanced(f.Injected) {
		t.Fatalf("fault ledger missing or unbalanced: %+v", f)
	}
	if f.SwapsRolledBack == 0 {
		t.Fatalf("no swap rolled back; the campaign no longer reaches the abort path: %+v", f)
	}
}

// TestSpanTraceReconcilesFaultLedger pins that the span trace, the only
// cycle-domain trace, tells the whole fault-ladder story: every injected
// fault leaves one fault mark, and every rollback, retirement, completed
// swap, and degradation leaves its span or mark.
func TestSpanTraceReconcilesFaultLedger(t *testing.T) {
	for _, d := range []heteromem.Design{heteromem.DesignN, heteromem.DesignN1, heteromem.DesignLive} {
		for _, channels := range []int{1, 2} {
			d, channels := d, channels
			t.Run(fmt.Sprintf("%v/c%d", d, channels), func(t *testing.T) {
				t.Parallel()
				sys, err := heteromem.New(heteromem.Config{
					Migration: heteromem.Migration{Enabled: true, Design: d, SwapInterval: 1000},
					Channels:  channels,
					SpanTrace: 1 << 21,
					Fault:     ladderFaults(3),
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.RunWorkload("pgbench", 1, 100_000)
				if err != nil {
					t.Fatal(err)
				}
				if res.SpansDropped != 0 {
					t.Fatalf("spans dropped (%d); grow the test buffer", res.SpansDropped)
				}
				f := res.Faults
				if f == nil {
					t.Fatal("fault campaign produced no ledger")
				}
				kinds := map[string]uint64{}
				for _, s := range res.Spans {
					kinds[s.Kind.String()]++
				}
				for _, c := range []struct {
					kind string
					want uint64
				}{
					{"fault", f.Injected},
					{"rollback", f.SwapsRolledBack},
					{"retire", f.SlotsRetired},
					{"swap", res.Report.Migration.SwapsCompleted},
				} {
					if kinds[c.kind] != c.want {
						t.Errorf("%d %q spans, ledger says %d (ledger %+v)", kinds[c.kind], c.kind, c.want, f)
					}
				}
				if n := kinds["degrade"]; n > uint64(channels) || (n > 0) != f.DegradedMode {
					t.Errorf("%d degrade marks over %d channels with DegradedMode=%v", n, channels, f.DegradedMode)
				}
				t.Logf("ledger %+v; spans %v", *f, kinds)
			})
		}
	}
}
