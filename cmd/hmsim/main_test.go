package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"heteromem"
	"heteromem/internal/dsweep"
	"heteromem/internal/experiments"
	"heteromem/internal/flog"
)

// TestSingleRunMetricsJSON pins the acceptance contract of `hmsim
// -workload ... -metrics`: the emitted JSON must carry at least swap
// counts, per-region queue-latency histograms, P-bit stall counts, and
// background-copy traffic.
func TestSingleRunMetricsJSON(t *testing.T) {
	var buf bytes.Buffer
	err := singleRun(context.Background(), &buf, singleRunConfig{
		Workload: "pgbench", Design: "live", Interval: 1000,
		Records: 200_000, Seed: 1,
		Metrics: true, Audit: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	var out struct {
		Workload string
		Design   string
		Records  uint64
		Result   struct {
			Metrics *struct {
				Counters   map[string]uint64          `json:"counters"`
				Gauges     map[string]int64           `json:"gauges"`
				Histograms map[string]json.RawMessage `json:"histograms"`
			} `json:"Metrics"`
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if out.Workload != "pgbench" || out.Design != "live" || out.Records != 200_000 {
		t.Fatalf("run summary wrong: %+v", out)
	}
	m := out.Result.Metrics
	if m == nil {
		t.Fatal("-metrics produced no metrics snapshot")
	}
	for _, counter := range []string{
		"memctrl.swap.started",
		"memctrl.swap.completed",
		"memctrl.pstall.redirects",
		"memctrl.copy.bytes",
		"memctrl.copy.sub_blocks",
	} {
		if _, ok := m.Counters[counter]; !ok {
			t.Errorf("counter %q missing from metrics JSON", counter)
		}
	}
	if m.Counters["memctrl.swap.completed"] == 0 {
		t.Error("no swaps completed in a workload that should migrate")
	}
	if m.Counters["memctrl.copy.bytes"] == 0 {
		t.Error("no background copy traffic recorded")
	}
	for _, hist := range []string{"memctrl.qlat.on", "memctrl.qlat.off"} {
		if _, ok := m.Histograms[hist]; !ok {
			t.Errorf("per-region queue-latency histogram %q missing", hist)
		}
	}
}

// TestSingleRunTraceAndSeriesOut pins the -trace-out/-series-out contract:
// the trace file is loadable Chrome trace-event JSON, the series file is one
// JSON EpochSample per line ending with the flush sample, and neither blob
// leaks into the stdout result JSON.
func TestSingleRunTraceAndSeriesOut(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	seriesPath := filepath.Join(dir, "series.jsonl")
	var buf bytes.Buffer
	err := singleRun(context.Background(), &buf, singleRunConfig{
		Workload: "pgbench", Design: "live", Interval: 1000,
		Records: 200_000, Seed: 1,
		TraceOut: tracePath, SeriesOut: seriesPath,
	})
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace file is not valid Chrome trace JSON: %v", err)
	}
	if trace.DisplayTimeUnit == "" || len(trace.TraceEvents) == 0 {
		t.Fatalf("trace file empty or missing displayTimeUnit: %d events", len(trace.TraceEvents))
	}
	sawSwap := false
	for _, ev := range trace.TraceEvents {
		if ev.Name == "swap" && ev.Ph == "X" {
			sawSwap = true
			break
		}
	}
	if !sawSwap {
		t.Error("trace file has no complete swap spans")
	}

	sraw, err := os.ReadFile(seriesPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(sraw)), "\n")
	if len(lines) < 2 {
		t.Fatalf("series file has only %d lines", len(lines))
	}
	var last heteromem.EpochSample
	for i, line := range lines {
		var s heteromem.EpochSample
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("series line %d is not valid JSON: %v", i, err)
		}
		last = s
	}
	if !last.Final {
		t.Error("last series line is not the flush sample")
	}

	for _, key := range []string{"Spans", "Series"} {
		if bytes.Contains(buf.Bytes(), []byte(`"`+key+`"`)) {
			t.Errorf("stdout JSON leaks %q despite the file redirect", key)
		}
	}
}

// probeTelemetry fetches one endpoint and returns its body.
func probeTelemetry(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body)
}

// TestRunExperimentsServesTelemetry is the -listen acceptance test run
// in-process: a small sweep serves /metrics, /progress, and pprof while it
// executes, and the server is gone once runExperiments returns.
func TestRunExperimentsServesTelemetry(t *testing.T) {
	var addr string
	err := runExperiments(context.Background(), io.Discard, expRunConfig{
		Names:  []string{"fig11a"},
		Params: experiments.Params{Records: 40_000, Workloads: []string{"pgbench"}},
		Listen: "127.0.0.1:0",
		OnListen: func(a string) {
			addr = a
			metrics := probeTelemetry(t, "http://"+a+"/metrics")
			for _, want := range []string{"hmsim_runs_planned", "hmsim_runs_completed", "hmsim_records_total"} {
				if !strings.Contains(metrics, want) {
					t.Errorf("/metrics missing %s", want)
				}
			}
			var p struct {
				Planned    int64   `json:"planned"`
				ETASeconds float64 `json:"eta_seconds"`
			}
			if err := json.Unmarshal([]byte(probeTelemetry(t, "http://"+a+"/progress")), &p); err != nil {
				t.Errorf("/progress is not valid JSON: %v", err)
			}
			if probeTelemetry(t, "http://"+a+"/debug/pprof/cmdline") == "" {
				t.Error("pprof cmdline endpoint empty")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		t.Fatal("OnListen never fired")
	}
	// Clean shutdown: the port must be released once the sweep is done.
	client := http.Client{Timeout: time.Second}
	if _, err := client.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("telemetry server still reachable after runExperiments returned")
	}
}

// TestRunExperimentsTelemetryShutdownOnCancel checks the timeout path: a
// cancelled context aborts the sweep with ctx.Err() and still tears the
// telemetry server down.
func TestRunExperimentsTelemetryShutdownOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var addr string
	err := runExperiments(ctx, io.Discard, expRunConfig{
		Names:    []string{"fig11a"},
		Params:   experiments.Params{Records: 40_000, Workloads: []string{"pgbench"}},
		Listen:   "127.0.0.1:0",
		OnListen: func(a string) { addr = a },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if addr == "" {
		t.Fatal("server never started")
	}
	client := http.Client{Timeout: time.Second}
	if _, err := client.Get("http://" + addr + "/progress"); err == nil {
		t.Fatal("telemetry server survived the cancelled sweep")
	}
}

// TestSingleRunFaultInjection pins the fault-injection contract end to end:
// a seeded fault campaign over an audited run must finish without error and
// report a balanced disposition ledger in the JSON output.
func TestSingleRunFaultInjection(t *testing.T) {
	var buf bytes.Buffer
	err := singleRun(context.Background(), &buf, singleRunConfig{
		Workload: "pgbench", Design: "live", Interval: 1000,
		Records: 100_000, Seed: 1, Audit: true,
		Fault: heteromem.FaultConfig{Seed: 7, DeviceRate: 1e-4, CopyRate: 1e-4, BulkRate: 1e-4},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Result struct {
			Faults *heteromem.FaultReport
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	f := out.Result.Faults
	if f == nil {
		t.Fatal("fault campaign produced no Faults ledger")
	}
	if f.Injected == 0 {
		t.Fatal("fault campaign injected nothing")
	}
	if !f.Balanced(f.Injected) {
		t.Fatalf("fault ledger unbalanced: %+v", f)
	}
}

// TestBuildCells pins the coordinator-mode grid construction: workloads x
// designs expansion, the all-workloads default, and early rejection of
// cells that could never simulate.
func TestBuildCells(t *testing.T) {
	base := dsweep.CellSpec{Seed: 1, Interval: 1000, Records: 1000}
	cells, err := buildCells([]string{"pgbench", "indexer"}, []string{"live", "none"}, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("2x2 grid produced %d cells", len(cells))
	}
	labels := map[string]bool{}
	for _, c := range cells {
		labels[c.Label()] = true
	}
	for _, want := range []string{"pgbench/live", "pgbench/none", "indexer/live", "indexer/none"} {
		if !labels[want] {
			t.Errorf("grid missing cell %s", want)
		}
	}

	all, err := buildCells(nil, []string{"live"}, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(heteromem.Workloads()) {
		t.Fatalf("empty workload list expanded to %d cells, want one per built-in workload (%d)",
			len(all), len(heteromem.Workloads()))
	}

	if _, err := buildCells([]string{"pgbench"}, []string{"bogus"}, nil, base); err == nil {
		t.Error("unknown design accepted")
	}
	if _, err := buildCells([]string{"nosuch"}, []string{"live"}, nil, base); err == nil {
		t.Error("unknown workload accepted")
	}
	noInterval := base
	noInterval.Interval = 0
	if _, err := buildCells([]string{"pgbench"}, []string{"live"}, nil, noInterval); err == nil {
		t.Error("migrating design without a swap interval accepted")
	}
	if _, err := buildCells([]string{"pgbench"}, []string{"none"}, nil, noInterval); err != nil {
		t.Errorf("non-migrating design should not need an interval: %v", err)
	}
}

// TestBuildCellsSchemes pins the scheme dimension of the grid: pure cache
// schemes collapse the design axis to one "none" cell per workload, memcache
// and migrate cross with -designs, and incompatible combinations are
// rejected at build time.
func TestBuildCellsSchemes(t *testing.T) {
	base := dsweep.CellSpec{Seed: 1, Interval: 1000, Records: 1000}
	cells, err := buildCells([]string{"pgbench"}, []string{"live", "n-1"},
		[]string{"migrate", "alloy-pred", "cachemode", "memcache:25"}, base)
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for _, c := range cells {
		labels[c.Label()] = true
	}
	want := []string{
		"pgbench/live", "pgbench/n-1", // migrate crosses with designs
		"pgbench/none/alloy-pred", "pgbench/none/cachemode", // cache: one cell each
		"pgbench/live/memcache:25", "pgbench/n-1/memcache:25", // memcache crosses
	}
	if len(cells) != len(want) {
		t.Fatalf("grid produced %d cells (%v), want %d", len(cells), labels, len(want))
	}
	for _, w := range want {
		if !labels[w] {
			t.Errorf("grid missing cell %s", w)
		}
	}
	// Every cell keys distinctly: the scheme reaches the config digest.
	keys := map[string]bool{}
	for _, c := range cells {
		k, err := c.Key()
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		if keys[k] {
			t.Errorf("duplicate key for %s", c.Label())
		}
		keys[k] = true
	}

	if _, err := buildCells([]string{"pgbench"}, []string{"live"}, []string{"bogus"}, base); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := buildCells([]string{"pgbench"}, []string{"none"}, []string{"memcache"}, base); err == nil {
		t.Error("memcache without a migrating design accepted")
	}
}

// TestCoordinateModeEndToEnd drives runCoordinator exactly as coordinator
// mode does, with two in-process workers racing the grid, and checks the
// stats summary and the durable manifest.
func TestCoordinateModeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "sweep.jsonl")
	journalPath := filepath.Join(dir, "sweep.journal")
	cells, err := buildCells([]string{"pgbench", "indexer"}, []string{"live", "none"}, []string{"migrate", "alloy"},
		dsweep.CellSpec{Seed: 1, Interval: 1000, Records: 60_000, Warmup: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	journal, closeJournal, err := openJournal(journalPath, "coordinator", "test-coord")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var buf bytes.Buffer
	var wg sync.WaitGroup
	workerErrs := make(chan error, 2)
	stats, err := runCoordinator(ctx, &buf, coordRunConfig{
		Addr: "127.0.0.1:0", Cells: cells, Manifest: manifestPath,
		SpillDir: dir, Journal: journal,
		OnListen: func(addr, telemetryAddr string) {
			if telemetryAddr != "" {
				t.Errorf("telemetry server started without -listen: %s", telemetryAddr)
			}
			for i := 0; i < 2; i++ {
				wg.Add(1)
				name := fmt.Sprintf("w%d", i)
				go func() {
					defer wg.Done()
					workerErrs <- dsweep.RunWorker(ctx, addr, dsweep.WorkerConfig{Name: name})
				}()
			}
		},
	})
	if err != nil {
		t.Fatalf("runCoordinator: %v", err)
	}
	wg.Wait()
	close(workerErrs)
	for werr := range workerErrs {
		if werr != nil {
			t.Errorf("worker: %v", werr)
		}
	}
	if stats.Completed != len(cells) || stats.Failed != 0 {
		t.Fatalf("stats %+v, want %d completed and 0 failed", stats, len(cells))
	}

	var out struct {
		Manifest  string
		Completed int
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("stats output is not valid JSON: %v", err)
	}
	if out.Manifest != manifestPath || out.Completed != len(cells) {
		t.Fatalf("stats JSON wrong: %+v", out)
	}

	// The fleet-health counters are part of the stats JSON contract even
	// when zero: an operator greps for them after every sweep.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"Takeovers", "Expiries", "Duplicates", "BadResumes", "Failures"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("stats JSON missing fleet-health counter %q", key)
		}
	}

	// The journal must reconstruct the sweep: every cell planned and
	// completed exactly once, and the summary sweep-done record present.
	closeJournal()
	jf, err := os.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := flog.Read(jf)
	jf.Close()
	if err != nil {
		t.Fatal(err)
	}
	fleet := flog.BuildFleet(recs)
	if len(fleet.Cells) != len(cells) {
		t.Fatalf("journal reconstructs %d cells, want %d", len(fleet.Cells), len(cells))
	}
	for _, c := range fleet.Cells {
		if !c.Completed || len(c.Attempts) != 1 {
			t.Errorf("cell %s: completed=%v attempts=%d, want clean single-attempt completion",
				c.Cell, c.Completed, len(c.Attempts))
		}
	}
	sawDone := false
	for _, r := range recs {
		if r.Event == flog.EvSweepDone {
			sawDone = true
		}
	}
	if !sawDone {
		t.Error("journal has no sweep-done record")
	}

	man, err := experiments.OpenManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	defer man.Close()
	if man.Len() != len(cells) {
		t.Fatalf("manifest holds %d cells, want %d", man.Len(), len(cells))
	}

	// A second coordinator over the same manifest has nothing left to lease
	// and resolves without any worker connecting.
	stats2, err := runCoordinator(ctx, io.Discard, coordRunConfig{
		Addr: "127.0.0.1:0", Cells: cells, Manifest: manifestPath,
	})
	if err != nil {
		t.Fatalf("restarted coordinator: %v", err)
	}
	if stats2.Skipped != len(cells) || stats2.Planned != 0 {
		t.Fatalf("restarted coordinator stats %+v, want all %d cells skipped", stats2, len(cells))
	}
}

// TestSingleRunCancelled pins the signal path below main: a cancelled
// context aborts a single run with an error wrapping context.Canceled.
func TestSingleRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := singleRun(ctx, io.Discard, singleRunConfig{
		Workload: "pgbench", Design: "live", Interval: 1000,
		Records: 200_000, Seed: 1,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestSingleRunScheme runs one workload under a pure cache scheme and
// checks the JSON output carries the scheme name and its hit statistics.
func TestSingleRunScheme(t *testing.T) {
	var buf bytes.Buffer
	err := singleRun(context.Background(), &buf, singleRunConfig{
		Workload: "pgbench", Design: "none", Scheme: "alloy",
		Records: 200_000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Scheme string
		Result struct {
			Report struct {
				Scheme *struct {
					Name     string
					Accesses uint64
					Hits     uint64
					HitRate  float64
				}
			}
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if out.Scheme != "alloy" {
		t.Fatalf("output Scheme = %q, want alloy", out.Scheme)
	}
	sr := out.Result.Report.Scheme
	if sr == nil || sr.Name != "alloy" || sr.Accesses == 0 {
		t.Fatalf("scheme report missing or empty: %+v", sr)
	}
	if sr.Hits == 0 || sr.HitRate <= 0 || sr.HitRate > 1 {
		t.Fatalf("implausible hit stats: %+v", sr)
	}
}

// TestSingleRunMatchesLibrary checks that a single run, built by the sweep
// cells' experiments.CellConfig, simulates what the library's
// heteromem.New builds from the same choices: the JSON Result must match
// RunWorkload's byte for byte, for every valid design and scheme pair on
// one and two channels.
func TestSingleRunMatchesLibrary(t *testing.T) {
	for _, tc := range []struct {
		design, scheme string
		lib            heteromem.Migration
	}{
		{"live", "migrate", heteromem.Migration{Enabled: true, Design: heteromem.DesignLive, SwapInterval: 1000}},
		{"n-1", "migrate", heteromem.Migration{Enabled: true, Design: heteromem.DesignN1, SwapInterval: 1000}},
		{"none", "migrate", heteromem.Migration{}},
		{"none", "alloy-pred", heteromem.Migration{}},
		{"live", "memcache:25", heteromem.Migration{Enabled: true, Design: heteromem.DesignLive, SwapInterval: 1000}},
		{"n-1", "memcache:25", heteromem.Migration{Enabled: true, Design: heteromem.DesignN1, SwapInterval: 1000}},
	} {
		for _, channels := range []int{1, 2} {
			name := fmt.Sprintf("%s/%s/c%d", tc.design, tc.scheme, channels)
			const records, page = 30_000, 64 * heteromem.KiB
			var buf bytes.Buffer
			if err := singleRun(context.Background(), &buf, singleRunConfig{
				Workload: "SPECjbb", Design: tc.design, Scheme: tc.scheme, Interval: 1000, Page: page,
				Channels: channels, Records: records, Warmup: records / 3, Seed: 2,
			}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var out struct{ Result json.RawMessage }
			if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := json.Compact(&got, out.Result); err != nil {
				t.Fatal(err)
			}
			sys, err := heteromem.New(heteromem.Config{
				MacroPageSize: page, Migration: tc.lib, Scheme: tc.scheme,
				Channels: channels, Warmup: records / 3,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := sys.RunWorkload("SPECjbb", 2, records)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s: single run diverged from the library:\n got %s\nwant %s", name, got.Bytes(), want)
			}
		}
	}
}

// TestMainSchemeUsageErrors re-executes main() with flag combinations that
// must die as usage errors (exit 2): a pure cache scheme combined with
// migration-only flags, an unknown scheme or workload name, and a
// -workloads list with an unknown name or with no name a single -exp runs
// over, and configurations no run can take (a channel count no hub can
// build, a page that is not a power of two, checkpoints with metrics),
// which every mode rejects before it simulates. memcache keeps the
// migration engine, so the same flags must be accepted there, and -exp all
// skips the drivers -workloads does not fit (the runs are kept tiny and
// merely have to get past flag validation).
func TestMainSchemeUsageErrors(t *testing.T) {
	if args := os.Getenv("HMSIM_SCHEME_HELPER"); args != "" {
		os.Args = append([]string{"hmsim"}, strings.Split(args, " ")...)
		main()
		return
	}
	if testing.Short() {
		t.Skip("spawns child processes; skipped in -short")
	}
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	run := func(args string) (int, string) {
		t.Helper()
		cmd := exec.Command(bin, "-test.run", "^TestMainSchemeUsageErrors$")
		cmd.Env = append(os.Environ(), "HMSIM_SCHEME_HELPER="+args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		if err == nil {
			return 0, stderr.String()
		}
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) {
			t.Fatalf("%s: %v (stderr %q)", args, err, stderr.String())
		}
		return exitErr.ExitCode(), stderr.String()
	}
	dir := t.TempDir()
	ckOut := filepath.Join(dir, "ck.bin")
	for _, args := range []string{
		"-workload pgbench -scheme alloy -design live",
		"-workload pgbench -scheme alloy -interval 500",
		"-workload pgbench -scheme cachemode -audit",
		"-workload pgbench -scheme bogus",
		"-workload bogus",
		"-workload pgbench -scheme memcache -design none",
		"-exp fig11a -scheme alloy", // -scheme is single-run only
		"-exp fig11a -workloads pgbench,bogus",
		"-exp all -workloads bogus",
		"-exp fig4 -workloads pgbench", // fig4 runs over NPB programs
		"-exp table4 -workloads EP.C",  // table4 runs over memory workloads
		"-workload pgbench -page 3000",
		"-workload pgbench -channels 3",
		"-workload pgbench -metrics -checkpoint-out " + ckOut + " -checkpoint-every 1000",
		"-exp table4 -channels 3",
		"-coordinate 127.0.0.1:0 -manifest " + filepath.Join(dir, "sweep.jsonl") + " -channels 3",
	} {
		if code, errOut := run(args); code != 2 {
			t.Errorf("%s: exit %d (stderr %q), want usage error 2", args, code, errOut)
		}
	}
	if _, err := os.Stat(ckOut); !os.IsNotExist(err) {
		t.Errorf("a rejected checkpointed run wrote %s (stat: %v)", ckOut, err)
	}
	// memcache keeps the migration machinery: the same flags validate.
	if code, errOut := run("-workload pgbench -scheme memcache -design live -interval 1000 -audit -records 20000"); code != 0 {
		t.Errorf("memcache with migration flags exited %d (stderr %q), want success", code, errOut)
	}
	// fig4 and fig5 run over programs only: -exp all skips them, one line
	// each, and runs every other driver over pgbench.
	code, errOut := run("-exp all -workloads pgbench -records 2000 -warmup 1000")
	if code != 0 {
		t.Errorf("-exp all -workloads pgbench exited %d (stderr %q), want success", code, errOut)
	}
	for _, name := range []string{"fig4", "fig5"} {
		if !strings.Contains(errOut, "skipping "+name+":") {
			t.Errorf("-exp all -workloads pgbench: stderr %q does not report skipping %s", errOut, name)
		}
	}
}

// TestMainSignalExit sends a real SIGINT to hmsim's main() mid-run (via the
// re-executed test binary) and checks the conventional exit code 130.
func TestMainSignalExit(t *testing.T) {
	if os.Getenv("HMSIM_MAIN_HELPER") == "1" {
		os.Args = []string{"hmsim", "-workload", "pgbench", "-design", "live", "-records", "100000000"}
		main()
		return
	}
	if testing.Short() {
		t.Skip("spawns a child process; skipped in -short")
	}
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-test.run", "^TestMainSignalExit$")
	cmd.Env = append(os.Environ(), "HMSIM_MAIN_HELPER=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let the run get past flag parsing and start simulating
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("child did not exit with an error after SIGINT (err %v, stderr %q)", err, stderr.String())
	}
	if code := exitErr.ExitCode(); code != 130 {
		t.Fatalf("exit code %d after SIGINT, want 130 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "cancelled") {
		t.Errorf("stderr does not mention cancellation: %q", stderr.String())
	}
}
