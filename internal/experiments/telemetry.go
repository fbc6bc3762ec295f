package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heteromem/internal/obs"
	"heteromem/internal/sim"
)

// Telemetry is a goroutine-safe sweep-level aggregator layered over the
// per-run single-threaded registries: each simulation still owns its own
// obs.Registry (nothing in the hot path synchronizes), and completed runs
// fold their snapshots into atomic sweep totals. Attach one to
// Params.Telemetry and serve Handler() to watch a parallel sweep live —
// Prometheus text at /metrics, run progress and an ETA at /progress, and
// net/http/pprof under /debug/pprof/.
type Telemetry struct {
	start time.Time

	planned   atomic.Int64
	started   atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	records   atomic.Uint64
	wallNS    atomic.Int64 // summed wall time of finished runs

	mu     sync.Mutex
	active map[string]int // workload label -> runs currently executing

	// Sweep totals of the per-run metrics snapshots: counters and gauges
	// are summed across runs. Values are *atomic.Int64 keyed by name.
	sums sync.Map

	// collectors are extra /metrics sections appended after the sweep
	// totals (the distributed-sweep coordinator folds its lease and
	// heartbeat metrics in here); workers feeds the /progress per-worker
	// health table. Both are guarded by mu.
	collectors []func(*strings.Builder)
	workers    func() []WorkerHealth
}

// NewTelemetry returns an empty aggregator; the ETA clock starts now.
func NewTelemetry() *Telemetry {
	return &Telemetry{start: time.Now(), active: make(map[string]int)}
}

// addPlanned announces n upcoming runs. Nil-safe.
func (t *Telemetry) addPlanned(n int) {
	if t != nil {
		t.planned.Add(int64(n))
	}
}

// runStarted marks one run in flight. Nil-safe.
func (t *Telemetry) runStarted() {
	if t != nil {
		t.started.Add(1)
	}
}

// runFinished accounts one finished run and its wall time. Nil-safe.
func (t *Telemetry) runFinished(began time.Time, err error) {
	if t == nil {
		return
	}
	t.wallNS.Add(int64(time.Since(began)))
	if err != nil {
		t.failed.Add(1)
	} else {
		t.completed.Add(1)
	}
}

// setActive adjusts the in-flight count of one workload label. Nil-safe.
func (t *Telemetry) setActive(label string, delta int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.active[label] += delta
	if t.active[label] <= 0 {
		delete(t.active, label)
	}
	t.mu.Unlock()
}

// sum returns the named sweep total, creating it at zero.
func (t *Telemetry) sum(name string) *atomic.Int64 {
	if v, ok := t.sums.Load(name); ok {
		return v.(*atomic.Int64)
	}
	v, _ := t.sums.LoadOrStore(name, new(atomic.Int64))
	return v.(*atomic.Int64)
}

// observeRun folds one completed run into the sweep totals. Nil-safe; a
// nil snapshot only counts records.
func (t *Telemetry) observeRun(records uint64, snap *obs.Snapshot) {
	if t == nil {
		return
	}
	t.records.Add(records)
	if snap == nil {
		return
	}
	for name, v := range snap.Counters {
		t.sum("counter." + name).Add(int64(v))
	}
	for name, v := range snap.Gauges {
		t.sum("gauge." + name).Add(v)
	}
}

// AddPlanned announces n upcoming runs to /progress. Exported for the
// distributed sweep coordinator (internal/dsweep), which plans cells
// outside the Params.forEach wrappers. Nil-safe.
func (t *Telemetry) AddPlanned(n int) { t.addPlanned(n) }

// RunStarted marks one remote run (a leased cell) in flight under the
// given label and returns its start time for RunFinished. Nil-safe.
func (t *Telemetry) RunStarted(label string) time.Time {
	t.runStarted()
	t.setActive(label, +1)
	return time.Now()
}

// RunFinished accounts a remote run's outcome and wall time; a lease
// revoked by worker death or missed heartbeats is reported with a non-nil
// err, so /progress counts takeovers under failed. Nil-safe.
func (t *Telemetry) RunFinished(label string, began time.Time, err error) {
	t.setActive(label, -1)
	t.runFinished(began, err)
}

// AddRecords folds remotely simulated records into the sweep totals as
// heartbeats stream in, so /progress advances while a cell is still
// executing on a worker. Nil-safe.
func (t *Telemetry) AddRecords(n uint64) {
	if t != nil {
		t.records.Add(n)
	}
}

// AddCollector appends a metrics section to /metrics: fn runs on every
// scrape, after the built-in sweep totals, and must write complete
// Prometheus text exposition lines. The distributed sweep coordinator
// registers its lease/heartbeat metrics this way so one -listen endpoint
// serves the whole fleet. Nil-safe.
func (t *Telemetry) AddCollector(fn func(*strings.Builder)) {
	if t == nil || fn == nil {
		return
	}
	t.mu.Lock()
	t.collectors = append(t.collectors, fn)
	t.mu.Unlock()
}

// SetWorkerHealth installs the provider for the /progress per-worker
// health table. The provider runs on every /progress request; it should
// return quickly. Nil-safe.
func (t *Telemetry) SetWorkerHealth(fn func() []WorkerHealth) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.workers = fn
	t.mu.Unlock()
}

// ObserveRingDrops folds one run's observability-ring drop counts (event,
// span, and series rings, see internal/obs) into the sweep totals, so a
// sweep that silently overwrote trace data is visible on /metrics as
// hmsim_sim_obs_*_ring_dropped. Nil-safe.
func (t *Telemetry) ObserveRingDrops(events, spans, series uint64) {
	if t == nil || events|spans|series == 0 {
		return
	}
	if events > 0 {
		t.sum("counter.obs.events_ring_dropped").Add(int64(events))
	}
	if spans > 0 {
		t.sum("counter.obs.spans_ring_dropped").Add(int64(spans))
	}
	if series > 0 {
		t.sum("counter.obs.series_ring_dropped").Add(int64(series))
	}
}

// WorkerHealth is one row of the /progress fleet health table: a live
// worker's name, how many cells it holds, how stale its last heartbeat
// is, and its observed throughput.
type WorkerHealth struct {
	Name                 string  `json:"name"`
	Cells                int     `json:"cells"`                  // leases currently held
	LastHeartbeatSeconds float64 `json:"last_heartbeat_seconds"` // age of newest heartbeat; -1 = none yet
	Records              uint64  `json:"records"`                // records completed by this worker
	RecordsPerSec        float64 `json:"records_per_sec"`        // lifetime throughput
}

// Progress is the /progress JSON payload.
type Progress struct {
	Planned        int64    `json:"planned"`
	Started        int64    `json:"started"`
	Completed      int64    `json:"completed"`
	Failed         int64    `json:"failed"`
	Records        uint64   `json:"records"`
	Active         []string `json:"active"`          // workloads currently executing
	ElapsedSeconds float64  `json:"elapsed_seconds"` // since NewTelemetry
	ETASeconds     float64  `json:"eta_seconds"`     // -1 until a run completes

	// Workers is the fleet health table, present only when a distributed
	// sweep coordinator installed a provider via SetWorkerHealth.
	Workers []WorkerHealth `json:"workers,omitempty"`
}

// Progress assembles the current sweep state.
func (t *Telemetry) Progress() Progress {
	p := Progress{
		Planned:        t.planned.Load(),
		Started:        t.started.Load(),
		Completed:      t.completed.Load(),
		Failed:         t.failed.Load(),
		Records:        t.records.Load(),
		ElapsedSeconds: time.Since(t.start).Seconds(),
		ETASeconds:     -1,
	}
	t.mu.Lock()
	for label, n := range t.active {
		for i := 0; i < n; i++ {
			p.Active = append(p.Active, label)
		}
	}
	workers := t.workers
	t.mu.Unlock()
	sort.Strings(p.Active)
	if workers != nil {
		p.Workers = workers()
		sort.Slice(p.Workers, func(i, j int) bool { return p.Workers[i].Name < p.Workers[j].Name })
	}
	// The completion rate observed so far already bakes in the worker
	// parallelism, so remaining/rate is the natural ETA.
	if done := p.Completed + p.Failed; done > 0 && p.ElapsedSeconds > 0 {
		remaining := p.Planned - done
		if remaining < 0 {
			remaining = 0
		}
		p.ETASeconds = float64(remaining) * p.ElapsedSeconds / float64(done)
	}
	return p
}

// promName sanitizes a dotted instrument name into a valid Prometheus
// metric name: [a-zA-Z_:][a-zA-Z0-9_:]*. Every illegal rune collapses to
// an underscore (dots, dashes, slashes, spaces, anything non-ASCII), and
// a leading digit gains an underscore prefix, so arbitrary instrument
// names never produce an unscrapable exposition.
func promName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// PromLabel escapes a label value for Prometheus text exposition
// (backslash, double quote, and newline are the only escapes). Exported
// for collectors registered via AddCollector that emit labeled series —
// worker names come off the wire and cannot be trusted to be tame.
func PromLabel(v string) string {
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(v)
}

// WritePromHistogram renders one obs.HistogramSnapshot as a Prometheus
// histogram: cumulative le-labeled buckets, the +Inf bucket, _sum, and
// _count. name is sanitized with the same rules as every other metric.
// Coordinator-side collectors use this for heartbeat interval, RTT, and
// checkpoint-size distributions.
func WritePromHistogram(w *strings.Builder, name string, s obs.HistogramSnapshot) {
	name = promName(name)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum uint64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, bound, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	fmt.Fprintf(w, "%s_sum %d\n", name, s.Sum)
	fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
}

// WriteMetrics renders the sweep totals in Prometheus text exposition
// format (version 0.0.4), deterministically sorted.
func (t *Telemetry) WriteMetrics(w *strings.Builder) {
	p := t.Progress()
	fmt.Fprintf(w, "# TYPE hmsim_runs_planned gauge\nhmsim_runs_planned %d\n", p.Planned)
	fmt.Fprintf(w, "# TYPE hmsim_runs_started counter\nhmsim_runs_started %d\n", p.Started)
	fmt.Fprintf(w, "# TYPE hmsim_runs_completed counter\nhmsim_runs_completed %d\n", p.Completed)
	fmt.Fprintf(w, "# TYPE hmsim_runs_failed counter\nhmsim_runs_failed %d\n", p.Failed)
	fmt.Fprintf(w, "# TYPE hmsim_runs_active gauge\nhmsim_runs_active %d\n", len(p.Active))
	fmt.Fprintf(w, "# TYPE hmsim_records_total counter\nhmsim_records_total %d\n", p.Records)
	fmt.Fprintf(w, "# TYPE hmsim_run_seconds_total counter\nhmsim_run_seconds_total %g\n",
		time.Duration(t.wallNS.Load()).Seconds())

	type kv struct {
		name string
		v    int64
	}
	var rows []kv
	t.sums.Range(func(k, v any) bool {
		rows = append(rows, kv{k.(string), v.(*atomic.Int64).Load()})
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, r := range rows {
		kind := "counter"
		name := r.name
		if cut, ok := strings.CutPrefix(name, "gauge."); ok {
			// Summed across runs, so exposed as a counter-like total; the
			// prefix keeps the provenance visible.
			name = "hmsim_sim_" + promName(cut) + "_sum"
		} else if cut, ok := strings.CutPrefix(name, "counter."); ok {
			name = "hmsim_sim_" + promName(cut)
		} else {
			name = "hmsim_sim_" + promName(name)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", name, kind, name, r.v)
	}

	t.mu.Lock()
	collectors := append([]func(*strings.Builder){}, t.collectors...)
	t.mu.Unlock()
	for _, fn := range collectors {
		fn(w)
	}
}

// Handler serves the live sweep telemetry: /metrics (Prometheus text),
// /progress (JSON), and the standard pprof endpoints under /debug/pprof/.
func (t *Telemetry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		var b strings.Builder
		t.WriteMetrics(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(t.Progress())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// forEach is forEachIndex plus sweep-telemetry accounting: the jobs are
// announced up front (so /progress shows a stable denominator) and every
// job's wall time and outcome is recorded.
func (p Params) forEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	t := p.Telemetry
	if t == nil {
		return forEachIndex(ctx, n, workers, fn)
	}
	t.addPlanned(n)
	return forEachIndex(ctx, n, workers, func(i int) error {
		began := time.Now()
		t.runStarted()
		err := fn(i)
		t.runFinished(began, err)
		return err
	})
}

// simulate runs one cell: replayed from the driver's shared packed
// materialization when one is active (and the run is bounded, so the
// materialization is finite), straight from a fresh generator otherwise.
func (p Params) simulate(name string, cfg sim.Config) (sim.Result, error) {
	if p.packed != nil && cfg.MaxRecords > 0 {
		src, err := p.packed.source(name, p.seed(), cfg.MaxRecords)
		if err != nil {
			return sim.Result{}, err
		}
		return sim.Run(src, cfg)
	}
	return runTrace(name, p.seed(), cfg)
}

// runTrace runs one (workload, configuration) simulation with telemetry
// and manifest support: a cell already recorded in the manifest is served
// from it without simulating; otherwise the workload shows up in /progress
// while it executes, metrics collection is forced on (under telemetry) so
// the run's counters can fold into the sweep totals, and a completed run
// is recorded in the manifest before its result is returned. Without
// either, it is exactly the plain runTrace.
func (p Params) runTrace(name string, cfg sim.Config) (sim.Result, error) {
	if p.Channels > 1 {
		cfg.Channels = p.Channels
	}
	t := p.Telemetry
	if p.Manifest != nil {
		if res, ok, err := p.Manifest.lookup(name, p.seed(), cfg); err != nil {
			return sim.Result{}, err
		} else if ok {
			t.observeRun(res.Records, res.Metrics)
			t.ObserveRingDrops(res.EventsDropped, res.SpansDropped, res.SeriesDropped)
			return res, nil
		}
	}
	if t != nil {
		cfg.Metrics = true
		t.setActive(name, +1)
		defer t.setActive(name, -1)
	}
	res, err := p.simulate(name, cfg)
	if err == nil {
		if t != nil {
			t.observeRun(res.Records, res.Metrics)
			t.ObserveRingDrops(res.EventsDropped, res.SpansDropped, res.SeriesDropped)
		}
		if p.Manifest != nil {
			if serr := p.Manifest.store(name, p.seed(), cfg, res); serr != nil {
				return res, fmt.Errorf("experiments: recording manifest cell: %w", serr)
			}
		}
	}
	return res, err
}
