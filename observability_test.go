package heteromem_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"heteromem"
)

// TestDeterministicRuns locks in reproducibility: the same workload, seed,
// and configuration must yield a byte-identical Result — including the full
// metrics snapshot and span trace — across two independent runs.
func TestDeterministicRuns(t *testing.T) {
	run := func() heteromem.Result {
		t.Helper()
		sys, err := heteromem.New(heteromem.Config{
			Migration: heteromem.Migration{Enabled: true, Design: heteromem.DesignLive, SwapInterval: 1000},
			Metrics:   true,
			SpanTrace: 512,
			Audit:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunWorkload("pgbench", 7, 300_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical runs produced different Results")
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatal("two identical runs produced different JSON encodings")
	}
	if a.Metrics == nil || len(a.Spans) == 0 {
		t.Fatal("metrics snapshot or span trace missing from the result")
	}
}

// TestMillionRecordAuditZeroViolations is the acceptance run: with auditing
// and metrics enabled, each of the three designs processes a 1M-record
// workload with zero invariant violations — any violation fails the run
// with an error. It also checks the audit actually fired and swaps
// actually happened, so a silently-disabled auditor cannot pass.
func TestMillionRecordAuditZeroViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-record acceptance run skipped in -short mode")
	}
	for _, d := range []heteromem.Design{heteromem.DesignN, heteromem.DesignN1, heteromem.DesignLive} {
		d := d
		t.Run(fmt.Sprint(d), func(t *testing.T) {
			t.Parallel()
			sys, err := heteromem.New(heteromem.Config{
				Migration: heteromem.Migration{Enabled: true, Design: d, SwapInterval: 1000},
				Metrics:   true,
				Audit:     true,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.RunWorkload("pgbench", 1, 1_000_000)
			if err != nil {
				t.Fatalf("audited 1M-record run failed: %v", err)
			}
			m := res.Metrics
			if m == nil {
				t.Fatal("no metrics snapshot")
			}
			if res.Report.Migration.SwapsCompleted == 0 {
				t.Fatal("no swaps completed; the audit exercised nothing")
			}
			if m.Gauges["check.audits.step"]+m.Gauges["check.audits.quiescent"] == 0 {
				t.Fatal("auditor never ran")
			}
			if got := m.Counters["memctrl.swap.completed"]; got != res.Report.Migration.SwapsCompleted {
				t.Fatalf("swap counter %d disagrees with migration stats %d",
					got, res.Report.Migration.SwapsCompleted)
			}
		})
	}
}

// TestMetricsDisabledByDefault confirms the zero-cost default: no metrics
// config means no snapshot and no spans in the result.
func TestMetricsDisabledByDefault(t *testing.T) {
	sys, err := heteromem.New(heteromem.Config{
		Migration: heteromem.Migration{Enabled: true, Design: heteromem.DesignN1, SwapInterval: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunWorkload("pgbench", 1, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != nil || res.Spans != nil {
		t.Fatal("metrics/spans present despite being disabled")
	}
}
