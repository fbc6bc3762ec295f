// Package experiments contains one driver per table and figure of the
// paper's evaluation, each rendering the rows/series the paper reports.
// The Section IV drivers, the schemes comparison and the epoch trajectory
// only list their cells, each a workload plus a sim.Config, and fold the
// results; Params.sweep runs the cells, replaying each workload from one
// packed trace, through the optional Manifest and Telemetry. CellConfig
// builds a cell's configuration from design and scheme names, for the
// drivers and the distributed sweep alike. The DESIGN.md per-experiment
// index maps every driver to the modules it exercises and the bench
// target that regenerates it.
package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"heteromem/internal/addr"
	"heteromem/internal/config"
	"heteromem/internal/core"
	"heteromem/internal/scheme"
	"heteromem/internal/sim"
	"heteromem/internal/stats"
	"heteromem/internal/trace"
	"heteromem/internal/workload"
)

// newTable is a local alias for the stats table renderer.
func newTable(header ...string) *stats.Table { return stats.NewTable(header...) }

// Params scales an experiment run.
type Params struct {
	// Records per trace simulation (0 selects the experiment's default).
	Records uint64
	// Warmup records excluded from statistics (0, or a count not below
	// the record count, selects half the records).
	Warmup uint64
	// Seed for the workload generators.
	Seed int64
	// Workloads filters to a subset (nil = the experiment's full list).
	Workloads []string
	// Parallelism caps the worker goroutines used for independent
	// simulations (0 = GOMAXPROCS).
	Parallelism int
	// Channels shards every simulation across this many per-channel
	// controllers, one worker goroutine each, with bit-reproducible
	// results (0 or 1 = the single-controller classic path). Manifest
	// cells key on the config digest, which covers the channel layout, so
	// sharded and unsharded sweeps never collide.
	Channels int
	// Telemetry, when non-nil, receives live sweep telemetry (run
	// progress, merged metrics) from every driver; serve its Handler to
	// watch a sweep over HTTP. Nil keeps the drivers telemetry-free.
	Telemetry *Telemetry
	// Manifest, when non-nil, makes the sweep crash-resilient: completed
	// (workload, seed, config) cells are recorded as they finish, and cells
	// already recorded are served from the manifest instead of re-running.
	Manifest *Manifest
}

func (p Params) records(def uint64) uint64 {
	if p.Records > 0 {
		return p.Records
	}
	return def
}

func (p Params) warmup(records uint64) uint64 {
	if p.Warmup > 0 && p.Warmup < records {
		return p.Warmup
	}
	return records / 2
}

func (p Params) seed() int64 {
	if p.Seed != 0 {
		return p.Seed
	}
	return 1
}

// workloads returns the names of the Workloads filter that def contains,
// in the filter's order, or def when there is no filter. A driver runs
// over memory workloads or over programs, so one filter can serve both
// kinds: each driver keeps the names of its own kind.
func (p Params) workloads(def []string) []string {
	if len(p.Workloads) == 0 {
		return def
	}
	var names []string
	for _, name := range p.Workloads {
		if slices.Contains(def, name) {
			names = append(names, name)
		}
	}
	return names
}

// Granularities is the paper's macro-page sweep (Table III: 4 KB to 4 MB).
var Granularities = []uint64{4 * addr.KiB, 16 * addr.KiB, 64 * addr.KiB, 256 * addr.KiB, 1 * addr.MiB, 4 * addr.MiB}

// Intervals is the paper's swap-interval sweep in memory accesses
// (Section IV: "after each 1,000, 10,000, and 100,000 memory accesses").
var Intervals = []uint64{1000, 10000, 100000}

// cell is one simulation of a sweep: a workload and its configuration,
// whose record count must be bounded.
type cell struct {
	workload string
	cfg      sim.Config
}

// sweep runs cells on up to Parallelism goroutines and returns their
// results in cell order. Every cell replays its workload from one packed
// trace per (workload, record count), built once for the sweep; the
// telemetry counts every cell (forEach), the manifest serves and records
// each (runTrace), and an error names the cell's workload.
func (p Params) sweep(ctx context.Context, cells []cell) ([]sim.Result, error) {
	packed := newPackedTraces()
	out := make([]sim.Result, len(cells))
	err := p.forEach(ctx, len(cells), p.Parallelism, func(i int) error {
		res, err := p.runTrace(packed, cells[i].workload, cells[i].cfg)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", cells[i].workload, err)
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// packedTraces materializes each (workload, seed, record-count) memory
// trace into the packed columnar form exactly once — even when sweep cells
// race on it from forEach workers — so a sweep that replays the same trace
// across dozens of configurations pays the generator and the trace storage
// once per workload instead of once per cell.
type packedTraces struct {
	mu sync.Mutex
	m  map[packedTraceKey]*packedTraceEntry
}

type packedTraceKey struct {
	name string
	seed int64
	n    uint64
}

type packedTraceEntry struct {
	once sync.Once
	p    *trace.Packed
	err  error
}

func newPackedTraces() *packedTraces {
	return &packedTraces{m: make(map[packedTraceKey]*packedTraceEntry)}
}

// source returns a fresh replay source over the shared packed trace for
// (name, seed, n), building the packed trace on first use.
func (c *packedTraces) source(name string, seed int64, n uint64) (trace.Source, error) {
	key := packedTraceKey{name: name, seed: seed, n: n}
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = &packedTraceEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		gen, err := workload.NewMemory(name, seed)
		if err != nil {
			e.err = err
			return
		}
		e.p, e.err = trace.Pack(gen, n)
	})
	if e.err != nil {
		return nil, e.err
	}
	return trace.NewPackedSource(e.p), nil
}

// traceConfig assembles a Section IV configuration.
func traceConfig(pageSize uint64, mig *core.Options, records, warmup uint64) sim.Config {
	cfg := sim.Default()
	cfg.Geometry.MacroPageSize = pageSize
	cfg.Migration = mig
	cfg.OSAssisted = mig != nil && pageSize < core.PureHardwareMinPage
	cfg.MaxRecords = records
	cfg.Warmup = warmup
	return cfg
}

// CellConfig builds a Section IV configuration from names: a migration
// design (a core.ParseDesign name; "" means none), an on-package scheme (a
// scheme.Parse name; "" means migrate), the macro page size (0 means the
// Table III default) and the channel count (0 or 1 means one channel).
// The config must pass sim.Config.Validate.
func CellConfig(design, schemeName string, page, interval uint64, channels int, records, warmup uint64) (sim.Config, error) {
	d, migrates, err := core.ParseDesign(design)
	if err != nil && design != "" {
		return sim.Config{}, err
	}
	sp, err := scheme.Parse(schemeName)
	if err != nil {
		return sim.Config{}, err
	}
	if page == 0 {
		page = sim.Default().Geometry.MacroPageSize
	}
	var mig *core.Options
	if migrates {
		mig = &core.Options{Design: d, SwapInterval: interval}
	}
	cfg := traceConfig(page, mig, records, warmup)
	cfg.Scheme = sp
	cfg.Channels = channels
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

// Runner is an experiment entry point for the CLI. Cancelling ctx stops
// the driver between simulations and surfaces ctx.Err().
type Runner func(ctx context.Context, w io.Writer, p Params) error

// Registry maps experiment IDs to their drivers.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table1":  Table1,
		"table2":  Table2,
		"table3":  Table3,
		"table4":  Table4,
		"fig4":    Fig4,
		"fig5":    Fig5,
		"fig10":   Fig10,
		"fig11a":  func(ctx context.Context, w io.Writer, p Params) error { return Fig11(ctx, w, p, 1000) },
		"fig11b":  func(ctx context.Context, w io.Writer, p Params) error { return Fig11(ctx, w, p, 10000) },
		"fig11c":  func(ctx context.Context, w io.Writer, p Params) error { return Fig11(ctx, w, p, 100000) },
		"fig12":   func(ctx context.Context, w io.Writer, p Params) error { return Fig1214(ctx, w, p, 1000) },
		"fig13":   func(ctx context.Context, w io.Writer, p Params) error { return Fig1214(ctx, w, p, 10000) },
		"fig14":   func(ctx context.Context, w io.Writer, p Params) error { return Fig1214(ctx, w, p, 100000) },
		"fig15":   Fig15,
		"fig16":   Fig16,
		"schemes": Schemes,
	}
}

// DriverWorkloads returns the workloads the named experiment runs over
// when Params.Workloads does not narrow them: the NPB programs for the
// Section II figures, the memory workloads for the Section IV sweeps and
// the schemes comparison, and nil for an experiment that takes none.
func DriverWorkloads(name string) []string {
	switch name {
	case "fig4", "fig5":
		return workload.ProgramNames()
	case "table4", "fig11a", "fig11b", "fig11c", "fig12", "fig13", "fig14", "fig15", "fig16", "schemes":
		return workload.Names()
	}
	return nil
}

// Names returns the registered experiment IDs, sorted.
func Names() []string {
	r := Registry()
	out := make([]string, 0, len(r))
	for k := range r {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sizeLabel formats a byte count the way the paper's axes do.
func sizeLabel(b uint64) string {
	switch {
	case b >= addr.GiB && b%addr.GiB == 0:
		return fmt.Sprintf("%dGB", b/addr.GiB)
	case b >= addr.MiB && b%addr.MiB == 0:
		return fmt.Sprintf("%dMB", b/addr.MiB)
	default:
		return fmt.Sprintf("%dKB", b/addr.KiB)
	}
}

// addWorkloadRows adds one row per workload to t: the workload's name, then
// cell(pt) for each of its points. The points arrive grouped by workload,
// as every driver emits them.
func addWorkloadRows[P any](t *stats.Table, points []P, workload, cell func(P) string) {
	var row []string
	for _, pt := range points {
		if name := workload(pt); len(row) == 0 || name != row[0] {
			if len(row) > 0 {
				t.AddRow(row...)
			}
			row = []string{name}
		}
		row = append(row, cell(pt))
	}
	if len(row) > 0 {
		t.AddRow(row...)
	}
}

// designList is the Fig. 11 design comparison.
var designList = []core.Design{core.DesignN, core.DesignN1, core.DesignLive}

// defaultLatencies gives drivers access to the Table II constants.
func defaultLatencies() config.Latencies { return config.TableIILatencies() }
