package heteromem_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"heteromem"
)

// TestSpanTraceLifecycles runs each design with span tracing on and checks
// the trace tells a coherent temporal story: swaps nest their copy legs,
// every span has a sane interval, and the whole thing exports as loadable
// Chrome trace JSON.
func TestSpanTraceLifecycles(t *testing.T) {
	for _, d := range []heteromem.Design{heteromem.DesignN, heteromem.DesignN1, heteromem.DesignLive} {
		d := d
		t.Run(fmt.Sprint(d), func(t *testing.T) {
			t.Parallel()
			sys, err := heteromem.New(heteromem.Config{
				Migration: heteromem.Migration{Enabled: true, Design: d, SwapInterval: 1000},
				SpanTrace: 1 << 21,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.RunWorkload("pgbench", 7, 300_000)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Spans) == 0 {
				t.Fatal("no spans recorded")
			}
			kinds := map[string]int{}
			for _, s := range res.Spans {
				if s.End < s.Begin {
					t.Fatalf("span ends before it begins: %+v", s)
				}
				kinds[s.Kind.String()]++
			}
			for _, want := range []string{"swap", "swap-step", "copy-read", "copy-write", "epoch"} {
				if kinds[want] == 0 {
					t.Fatalf("no %q spans; kinds seen: %v", want, kinds)
				}
			}
			if d == heteromem.DesignN && kinds["stall"] == 0 {
				t.Fatalf("N design produced no stall spans; kinds: %v", kinds)
			}
			// Swap count in the trace must reconcile with the final stats
			// (the buffer was sized not to drop).
			if res.SpansDropped != 0 {
				t.Fatalf("spans dropped (%d); grow the test buffer", res.SpansDropped)
			}
			if got := uint64(kinds["swap"]); got != res.Report.Migration.SwapsCompleted {
				t.Fatalf("swap spans %d != swaps completed %d", got, res.Report.Migration.SwapsCompleted)
			}

			var buf bytes.Buffer
			if err := heteromem.WriteChromeTrace(&buf, res.Spans); err != nil {
				t.Fatal(err)
			}
			var top struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
				t.Fatalf("exported trace is not valid JSON: %v", err)
			}
			if len(top.TraceEvents) < len(res.Spans) {
				t.Fatalf("trace has %d events for %d spans", len(top.TraceEvents), len(res.Spans))
			}
		})
	}
}

// TestEpochSeriesReconciles checks the per-epoch time series: one sample
// per monitoring epoch plus the flush-time sample, cumulative counters
// monotone, and the final sample agreeing with the final metrics snapshot.
func TestEpochSeriesReconciles(t *testing.T) {
	sys, err := heteromem.New(heteromem.Config{
		Migration:   heteromem.Migration{Enabled: true, Design: heteromem.DesignLive, SwapInterval: 1000},
		Metrics:     true,
		EpochSeries: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunWorkload("pgbench", 7, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) < 2 {
		t.Fatalf("series too short: %d samples", len(res.Series))
	}
	if res.SeriesDropped != 0 {
		t.Fatalf("series dropped %d samples", res.SeriesDropped)
	}
	epochs := res.Metrics.Gauges["mig.epochs"]
	// One sample per epoch boundary plus the final flush sample.
	if got := len(res.Series); got != int(epochs)+1 {
		t.Fatalf("series has %d samples for %d epochs (+1 final)", got, epochs)
	}
	var prev heteromem.EpochSample
	for i, s := range res.Series {
		final := i == len(res.Series)-1
		if s.Final != final {
			t.Fatalf("sample %d Final=%v, want %v", i, s.Final, final)
		}
		if s.Cycle < prev.Cycle || s.AccOn+s.AccOff < prev.AccOn+prev.AccOff ||
			s.SwapsStarted < prev.SwapsStarted || s.SwapsCompleted < prev.SwapsCompleted ||
			s.DRAMLatN < prev.DRAMLatN {
			t.Fatalf("cumulative counters regressed at sample %d: %+v after %+v", i, s, prev)
		}
		if s.QueueLatSum > int64(s.DRAMLatSum) {
			t.Fatalf("sample %d queue wait exceeds total DRAM latency: %+v", i, s)
		}
		prev = s
	}
	last := res.Series[len(res.Series)-1]
	m := res.Metrics
	if last.SwapsStarted != uint64(m.Gauges["mig.swaps_started"]) ||
		last.SwapsCompleted != uint64(m.Gauges["mig.swaps_completed"]) {
		t.Fatalf("final sample swaps (%d/%d) disagree with snapshot gauges (%d/%d)",
			last.SwapsStarted, last.SwapsCompleted,
			m.Gauges["mig.swaps_started"], m.Gauges["mig.swaps_completed"])
	}
	if last.AccOn != m.Counters["memctrl.access.on"] || last.AccOff != m.Counters["memctrl.access.off"] {
		t.Fatal("final sample access counts disagree with snapshot counters")
	}
	if last.DRAMLatN != res.Report.DRAMAll.Count() {
		t.Fatalf("final sample DRAM count %d != report %d", last.DRAMLatN, res.Report.DRAMAll.Count())
	}
	if got, want := last.MeanDRAMLatency(), res.MeanDRAMLatency; got != want {
		t.Fatalf("final sample mean DRAM latency %v != result %v", got, want)
	}
}

// TestTemporalObservabilityIsPure locks in the purity contract: enabling
// span tracing and series sampling must not change a single simulated
// number — same latencies, same cycle count, same migration stats as a
// bare run — and the zero config must keep the new Result fields absent
// from the JSON encoding entirely (byte-identity discipline).
func TestTemporalObservabilityIsPure(t *testing.T) {
	run := func(spans, series int) heteromem.Result {
		t.Helper()
		sys, err := heteromem.New(heteromem.Config{
			Migration:   heteromem.Migration{Enabled: true, Design: heteromem.DesignLive, SwapInterval: 1000},
			SpanTrace:   spans,
			EpochSeries: series,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunWorkload("pgbench", 7, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare := run(0, 0)
	traced := run(1<<18, 1<<16)
	if bare.MeanLatency != traced.MeanLatency ||
		bare.MeanDRAMLatency != traced.MeanDRAMLatency ||
		bare.LastCycle != traced.LastCycle ||
		bare.Records != traced.Records ||
		bare.Report.Migration != traced.Report.Migration {
		t.Fatal("enabling span/series observability changed simulated results")
	}
	if bare.Spans != nil || bare.Series != nil {
		t.Fatal("disabled run returned spans/series")
	}
	if len(traced.Spans) == 0 || len(traced.Series) == 0 {
		t.Fatal("enabled run returned no spans/series")
	}
	jb, err := json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"Spans", "Series", "SpansDropped", "SeriesDropped", "Metrics"} {
		if bytes.Contains(jb, []byte(`"`+key+`"`)) {
			t.Fatalf("zero-config result JSON leaks %q — byte-identity with pre-PR builds broken", key)
		}
	}
}
