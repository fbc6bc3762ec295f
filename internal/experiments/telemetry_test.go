package experiments

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heteromem/internal/addr"
	"heteromem/internal/obs"
)

// TestTelemetryNilSafe checks that a nil aggregator is inert: every
// accounting hook must be callable through the Params wrappers without one.
func TestTelemetryNilSafe(t *testing.T) {
	var tel *Telemetry
	tel.addPlanned(3)
	tel.runStarted()
	tel.runFinished(time.Now(), nil)
	tel.setActive("x", +1)
	tel.observeRun(100, nil)

	p := Params{Records: 10_000, Workloads: []string{"pgbench"}}
	if err := p.forEach(context.Background(), 2, 2, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	res, err := p.runTrace(newPackedTraces(), "pgbench", traceConfig(4*addr.MiB, nil, 10_000, 5_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != nil {
		t.Fatal("nil telemetry must not force metrics collection")
	}
}

// TestTelemetryProgressAndMetrics checks the aggregate bookkeeping after a
// real (small) sweep: planned/started/completed line up, records accumulate,
// and the Prometheus rendering carries the folded simulation counters.
func TestTelemetryProgressAndMetrics(t *testing.T) {
	tel := NewTelemetry()
	p := Params{Records: 10_000, Workloads: []string{"pgbench"}, Telemetry: tel}
	if err := Fig11(context.Background(), io.Discard, p, 1000); err != nil {
		t.Fatal(err)
	}

	prog := tel.Progress()
	if prog.Planned == 0 || prog.Planned != prog.Started || prog.Planned != prog.Completed {
		t.Fatalf("sweep accounting off: %+v", prog)
	}
	if prog.Failed != 0 || len(prog.Active) != 0 {
		t.Fatalf("finished sweep still shows failures/active runs: %+v", prog)
	}
	if prog.Records == 0 {
		t.Fatal("no records accumulated")
	}
	if prog.ETASeconds != 0 {
		t.Fatalf("finished sweep ETA should be 0, got %g", prog.ETASeconds)
	}

	var b strings.Builder
	tel.WriteMetrics(&b)
	text := b.String()
	for _, want := range []string{
		"hmsim_runs_planned ",
		"hmsim_runs_completed ",
		"hmsim_records_total ",
		"hmsim_run_seconds_total ",
		"hmsim_sim_memctrl_access_on",
		"hmsim_sim_mig_swaps_completed_sum",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics text missing %q:\n%s", want, text)
		}
	}
}

// TestTelemetryConcurrentScrapes hammers every telemetry read path from many
// goroutines while a parallel sweep is writing — the race detector is the
// real assertion here. It also checks that mid-sweep scrapes stay
// well-formed.
func TestTelemetryConcurrentScrapes(t *testing.T) {
	tel := NewTelemetry()
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	var done atomic.Bool
	var wg sync.WaitGroup
	var scrapes atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := srv.Client()
			for !done.Load() {
				resp, err := client.Get(srv.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if !strings.Contains(string(body), "hmsim_runs_planned") {
					t.Error("mid-sweep /metrics scrape malformed")
					return
				}
				resp, err = client.Get(srv.URL + "/progress")
				if err != nil {
					t.Error(err)
					return
				}
				var prog Progress
				err = json.NewDecoder(resp.Body).Decode(&prog)
				resp.Body.Close()
				if err != nil {
					t.Errorf("mid-sweep /progress not JSON: %v", err)
					return
				}
				if prog.Started < prog.Completed+prog.Failed {
					t.Errorf("progress counters inconsistent: %+v", prog)
					return
				}
				scrapes.Add(1)
			}
		}()
	}
	// Direct (non-HTTP) readers race the same state.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			var b strings.Builder
			tel.WriteMetrics(&b)
			_ = tel.Progress()
		}
	}()

	p := Params{Records: 20_000, Parallelism: 4, Workloads: []string{"pgbench", "indexer"}, Telemetry: tel}
	if err := Fig11(context.Background(), io.Discard, p, 1000); err != nil {
		t.Fatal(err)
	}
	done.Store(true)
	wg.Wait()

	if scrapes.Load() == 0 {
		t.Fatal("no successful scrapes during the sweep")
	}
	prog := tel.Progress()
	if prog.Completed != prog.Planned || prog.Failed != 0 {
		t.Fatalf("sweep did not complete cleanly: %+v", prog)
	}
}

// TestSweepCountsEverySimulation checks that a sweep announces every
// simulation it runs: Fig. 15 runs a static and a live-migration cell per
// point, and the telemetry and the manifest count both.
func TestSweepCountsEverySimulation(t *testing.T) {
	man, err := OpenManifest(filepath.Join(t.TempDir(), "fig15.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer man.Close()
	tel := NewTelemetry()
	p := Params{Records: 10_000, Warmup: 5_000, Seed: 1, Workloads: []string{"pgbench"}, Telemetry: tel, Manifest: man}
	points, err := Fig15Data(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(2 * len(points))
	prog := tel.Progress()
	if prog.Planned != want || prog.Started != want || prog.Completed != want || man.Ran() != uint64(want) {
		t.Errorf("planned %d, started %d, completed %d, manifest ran %d; want %d each",
			prog.Planned, prog.Started, prog.Completed, man.Ran(), want)
	}
}

// TestTelemetryCountsFailures checks that erroring runs land in the failed
// counter, not completed.
func TestTelemetryCountsFailures(t *testing.T) {
	tel := NewTelemetry()
	p := Params{Telemetry: tel}
	if _, err := p.runTrace(newPackedTraces(), "no-such-workload", traceConfig(4*addr.MiB, nil, 1000, 500)); err == nil {
		t.Fatal("bogus workload should fail")
	}
	err := p.forEach(context.Background(), 3, 3, func(i int) error {
		if i == 1 {
			return context.DeadlineExceeded
		}
		return nil
	})
	if err == nil {
		t.Fatal("forEach should surface the job error")
	}
	prog := tel.Progress()
	if prog.Failed == 0 {
		t.Fatalf("failures not counted: %+v", prog)
	}
	if prog.Planned != 3 {
		t.Fatalf("planned should be 3, got %+v", prog)
	}
}

// TestPromName pins the sanitizer: whatever an instrument (or a worker on
// the wire) calls itself, the rendered metric name must satisfy the
// Prometheus grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func TestPromName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"mig.swaps.completed", "mig_swaps_completed"},
		{"memctrl-access-on", "memctrl_access_on"},
		{"already_fine:total", "already_fine:total"},
		{"spaces and/slashes", "spaces_and_slashes"},
		{"9starts_with_digit", "_9starts_with_digit"},
		{"unicode-wörker", "unicode_w_rker"}, // one underscore per rune, not per byte
		{"quotes\"and\nnewlines", "quotes_and_newlines"},
		{"", "_"},
		{"___", "___"},
	}
	for _, c := range cases {
		if got := promName(c.in); got != c.want {
			t.Errorf("promName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestPromLabel pins the label-value escaper against the three characters
// the exposition format treats specially.
func TestPromLabel(t *testing.T) {
	if got := PromLabel("plain"); got != "plain" {
		t.Errorf("PromLabel(plain) = %q", got)
	}
	if got := PromLabel("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Errorf("hostile label escaped to %q", got)
	}
}

// TestWritePromHistogram checks the cumulative-bucket rendering against a
// hand-filled snapshot: le buckets accumulate, +Inf equals the total
// count, and _sum/_count close the series.
func TestWritePromHistogram(t *testing.T) {
	h := obs.NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{3, 7, 40, 90, 900, 5000} {
		h.Observe(v)
	}
	var b strings.Builder
	WritePromHistogram(&b, "dsweep.heartbeat-rtt.us", h.Snapshot())
	got := b.String()
	want := "# TYPE dsweep_heartbeat_rtt_us histogram\n" +
		"dsweep_heartbeat_rtt_us_bucket{le=\"10\"} 2\n" +
		"dsweep_heartbeat_rtt_us_bucket{le=\"100\"} 4\n" +
		"dsweep_heartbeat_rtt_us_bucket{le=\"1000\"} 5\n" +
		"dsweep_heartbeat_rtt_us_bucket{le=\"+Inf\"} 6\n" +
		"dsweep_heartbeat_rtt_us_sum 6040\n" +
		"dsweep_heartbeat_rtt_us_count 6\n"
	if got != want {
		t.Errorf("histogram rendering:\n got: %q\nwant: %q", got, want)
	}
}

// TestTelemetryCollectorsAndWorkerHealth checks the two fleet hooks: an
// AddCollector section appears on /metrics after the built-ins, and a
// SetWorkerHealth provider populates the sorted /progress worker table.
func TestTelemetryCollectorsAndWorkerHealth(t *testing.T) {
	tel := NewTelemetry()
	tel.AddCollector(func(b *strings.Builder) {
		b.WriteString("# TYPE dsweep_leases_outstanding gauge\ndsweep_leases_outstanding 2\n")
	})
	tel.AddCollector(nil) // must be ignored, not panic
	tel.SetWorkerHealth(func() []WorkerHealth {
		return []WorkerHealth{
			{Name: "w1", Cells: 1, LastHeartbeatSeconds: 0.5, Records: 100, RecordsPerSec: 10},
			{Name: "w0", Cells: 2, LastHeartbeatSeconds: 1.5, Records: 300, RecordsPerSec: 30},
		}
	})

	var b strings.Builder
	tel.WriteMetrics(&b)
	text := b.String()
	if !strings.Contains(text, "dsweep_leases_outstanding 2") {
		t.Errorf("collector section missing from metrics:\n%s", text)
	}
	if strings.Index(text, "hmsim_runs_planned") > strings.Index(text, "dsweep_leases_outstanding") {
		t.Error("collector section rendered before the built-in totals")
	}

	prog := tel.Progress()
	if len(prog.Workers) != 2 || prog.Workers[0].Name != "w0" || prog.Workers[1].Name != "w1" {
		t.Fatalf("worker health table wrong: %+v", prog.Workers)
	}

	// Nil telemetry swallows both hooks.
	var none *Telemetry
	none.AddCollector(func(*strings.Builder) {})
	none.SetWorkerHealth(func() []WorkerHealth { return nil })
	none.ObserveRingDrops(2, 3)
}

// TestTelemetryObserveRingDrops checks that per-run observability-ring
// drops surface as hmsim_sim_obs_* counters, and that zero drops emit
// nothing (the common case must stay invisible).
func TestTelemetryObserveRingDrops(t *testing.T) {
	tel := NewTelemetry()
	tel.ObserveRingDrops(0, 0)
	var b strings.Builder
	tel.WriteMetrics(&b)
	if strings.Contains(b.String(), "ring_dropped") {
		t.Errorf("zero drops should not emit ring metrics:\n%s", b.String())
	}

	tel.ObserveRingDrops(0, 2)
	tel.ObserveRingDrops(3, 0)
	b.Reset()
	tel.WriteMetrics(&b)
	text := b.String()
	for _, want := range []string{
		"hmsim_sim_obs_spans_ring_dropped 3",
		"hmsim_sim_obs_series_ring_dropped 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}
