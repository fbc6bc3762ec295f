// Command hmsim runs the paper's experiments: every table and figure of
// the evaluation has a driver, selected with -exp. It also supports a
// single-run mode (-workload) that simulates one workload through one
// migration design and emits the full result — optionally with metrics,
// a span trace, and fault injection — as JSON.
//
// Usage:
//
//	hmsim -exp table4                 # reproduce Table IV
//	hmsim -exp fig11a -records 1e6    # Fig. 11 at swap interval 1000
//	hmsim -exp all -timeout 10m       # everything, bounded wall clock
//	hmsim -list                       # show available experiments
//
//	hmsim -workload pgbench -design live -records 1000000 -metrics
//	hmsim -workload SPECjbb -design n-1 -audit -trace-out trace.json
//	hmsim -workload pgbench -scheme alloy-pred    # DRAM-cache scheme, no migration
//	hmsim -workload pgbench -scheme memcache:25 -design live
//	hmsim -workload pgbench -design live -audit \
//	    -fault-device 1e-4 -fault-copy 1e-4 -fault-seed 7
//
// A sweep can also be distributed across processes and machines: one
// coordinator owns the manifest and leases cells to any number of workers,
// which may crash (or be SIGKILLed) and be replaced at any point without
// changing the sweep's results:
//
//	hmsim -coordinate :9090 -manifest sweep.jsonl -designs live,n-1 \
//	    -schemes migrate,alloy,cachemode,memcache
//	hmsim -worker host:9090        # run on as many machines as you like
//
// SIGINT/SIGTERM cancel any mode gracefully (the coordinator drains its
// workers; runs stop at the next cancellation poll) and exit with code 130.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"heteromem"
	"heteromem/internal/core"
	"heteromem/internal/dsweep"
	"heteromem/internal/experiments"
	"heteromem/internal/flog"
	"heteromem/internal/scheme"
	"heteromem/internal/sim"
	"heteromem/internal/snap"
	"heteromem/internal/workload"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list      = flag.Bool("list", false, "list available experiments")
		records   = flag.Uint64("records", 0, "trace records per simulation (0 = experiment default)")
		warmup    = flag.Uint64("warmup", 0, "warmup records excluded from statistics; 0 means records/2 under -exp and -coordinate, and no warmup in a single -workload run")
		seed      = flag.Int64("seed", 1, "workload generator seed")
		workloads = flag.String("workloads", "", "comma-separated workload subset (default: all)")
		channels  = flag.Int("channels", 0, "shard the controller across this many channels (power of two; 0 or 1 = single controller); sharded runs execute deterministically in parallel")
		timeout   = flag.Duration("timeout", 0, "experiment mode: wall-clock budget; exceeded runs abort between simulations")
		listen    = flag.String("listen", "", "experiment/coordinator mode: serve live sweep telemetry (/metrics, /progress, pprof) on this address, e.g. :8080 or :0")
		manifest  = flag.String("manifest", "", "experiment/coordinator mode: record completed runs in this JSONL file and skip cells it already holds (crash-resilient sweeps)")

		// Distributed sweep (coordinator/worker) mode.
		coordinate  = flag.String("coordinate", "", "coordinator mode: lease sweep cells to workers on this address, e.g. :9090")
		workerAddr  = flag.String("worker", "", "worker mode: execute cells leased by the coordinator at this address")
		workerName  = flag.String("name", "", "worker mode: worker name in coordinator logs (default host-pid)")
		designs     = flag.String("designs", "live", "coordinator mode: comma-separated migration designs for the workloads x designs sweep grid")
		schemes     = flag.String("schemes", "", "coordinator mode: comma-separated on-package schemes for the sweep grid (migrate, alloy[-pred], cachemode, memcache[-pred][:PCT]); cache schemes sweep once per workload as design 'none'")
		leaseTTL    = flag.Duration("lease-ttl", 0, "coordinator mode: lease expiry without a heartbeat (0 = default); must exceed the wall time between worker checkpoints")
		spillDir    = flag.String("spill-dir", "", "coordinator mode: persist in-flight checkpoints here so a restarted coordinator resumes takeover cells mid-run")
		maxAttempts = flag.Int("max-attempts", 0, "coordinator mode: lease attempts per cell before it fails permanently (0 = default)")
		journalOut  = flag.String("journal-out", "", "coordinator/worker mode: append the structured JSONL lifecycle journal to this file (hmreport -fleet reconstructs the sweep from it)")

		// Single-run mode.
		workloadName = flag.String("workload", "", "single-run mode: workload name (see heteromem.Workloads)")
		design       = flag.String("design", "live", "single-run migration design: n, n-1, live, or none")
		schemeName   = flag.String("scheme", "", "single-run on-package capacity scheme: migrate (default), alloy, alloy-pred, cachemode, memcache[:PCT], memcache-pred[:PCT]; pure cache schemes take no -design/-interval/-audit")
		interval     = flag.Uint64("interval", 1000, "single-run swap interval (accesses per epoch)")
		page         = flag.Uint64("page", 0, "single-run macro page size in bytes (0 = Table III default)")
		metrics      = flag.Bool("metrics", false, "single-run: collect and emit the metrics snapshot")
		audit        = flag.Bool("audit", false, "single-run: verify translation-table invariants throughout")
		traceOut     = flag.String("trace-out", "", "single-run: write a cycle-domain span trace as Chrome trace-event JSON to this file")
		seriesOut    = flag.String("series-out", "", "single-run: write the per-epoch time series as JSONL to this file")

		// Single-run checkpoint/resume.
		cpuProfile = flag.String("cpuprofile", "", "single-run: write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "single-run: write a heap profile to this file at exit")

		ckOut   = flag.String("checkpoint-out", "", "single-run: write run-state checkpoints to this file (atomically replaced each time)")
		ckEvery = flag.Uint64("checkpoint-every", 0, "single-run: records between checkpoints (requires -checkpoint-out)")
		resume  = flag.String("resume", "", "single-run: resume from this checkpoint file")
		ckInfo  = flag.String("checkpoint-info", "", "inspect a checkpoint file (validates checksums, prints metadata as JSON) and exit")

		// Single-run fault injection (see heteromem.FaultConfig).
		faultSeed     = flag.Uint64("fault-seed", 0, "single-run: fault injector PRNG seed")
		faultDevice   = flag.Float64("fault-device", 0, "single-run: DRAM burst fault probability [0,1]")
		faultCopy     = flag.Float64("fault-copy", 0, "single-run: migration copy-leg fault probability [0,1]")
		faultBulk     = flag.Float64("fault-bulk", 0, "single-run: bulk step-completion fault probability [0,1]")
		faultSchedule = flag.String("fault-schedule", "", "single-run: exact fault ordinals, e.g. 'copy@3,device@100x2,bulk@1-4'")
		faultRetries  = flag.Int("fault-retries", 0, "single-run: retry budget per faulted operation (0 = default)")
		faultBackoff  = flag.Int64("fault-backoff", 0, "single-run: base retry backoff in cycles (0 = default)")
		faultRetire   = flag.Int("fault-retire-after", 0, "single-run: faults on one frame before its slot retires (0 = default)")
		faultDegrade  = flag.Int("fault-degrade-budget", 0, "single-run: total faults before migration degrades to static (0 = never)")
	)
	flag.Parse()

	usageErr := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "hmsim: "+format+"\n", args...)
		os.Exit(2)
	}

	if *list {
		fmt.Println("available experiments:")
		for _, name := range experiments.Names() {
			fmt.Println("  " + name)
		}
		return
	}

	if *ckInfo != "" {
		if err := printCheckpointInfo(os.Stdout, *ckInfo); err != nil {
			fmt.Fprintf(os.Stderr, "hmsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// Validate the flag set up front so misuse fails immediately with a
	// usage error instead of surfacing mid-run (or being ignored). Exactly
	// one mode flag selects the mode; every other flag belongs to one or
	// more modes and is rejected outside them.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	const (
		modeSingle = "single"
		modeExp    = "exp"
		modeCoord  = "coordinate"
		modeWorker = "worker"
	)
	mode := ""
	for _, m := range []struct {
		name string
		on   bool
	}{
		{modeSingle, *workloadName != ""},
		{modeExp, *exp != ""},
		{modeCoord, *coordinate != ""},
		{modeWorker, *workerAddr != ""},
	} {
		if !m.on {
			continue
		}
		if mode != "" {
			usageErr("-workload, -exp, -coordinate, and -worker are mutually exclusive")
		}
		mode = m.name
	}
	onlyIn := func(flags []string, allowed bool, what string) {
		if allowed {
			return
		}
		for _, name := range flags {
			if set[name] {
				usageErr("-%s applies only to %s", name, what)
			}
		}
	}
	onlyIn([]string{
		"design", "scheme", "metrics", "audit",
		"trace-out", "series-out", "cpuprofile", "memprofile",
		"checkpoint-out", "resume",
		"fault-seed", "fault-device", "fault-copy", "fault-bulk",
		"fault-schedule", "fault-retries", "fault-backoff",
		"fault-retire-after", "fault-degrade-budget",
	}, mode == modeSingle, "single-run mode (-workload)")
	onlyIn([]string{"interval", "page", "checkpoint-every"},
		mode == modeSingle || mode == modeCoord, "single-run or coordinator mode")
	onlyIn([]string{"timeout"}, mode == modeExp, "experiment mode (-exp)")
	onlyIn([]string{"workloads", "listen", "manifest"},
		mode == modeExp || mode == modeCoord, "experiment or coordinator mode")
	onlyIn([]string{"designs", "schemes", "lease-ttl", "spill-dir", "max-attempts"},
		mode == modeCoord, "coordinator mode (-coordinate)")
	onlyIn([]string{"journal-out"},
		mode == modeCoord || mode == modeWorker, "coordinator or worker mode")
	onlyIn([]string{"name"}, mode == modeWorker, "worker mode (-worker)")
	onlyIn([]string{"records", "warmup", "seed", "channels"},
		mode != modeWorker, "a mode that simulates locally (workers take cell parameters from their leases)")
	if *records > 0 && *warmup >= *records {
		usageErr("-warmup (%d) must be smaller than -records (%d)", *warmup, *records)
	}
	if *timeout < 0 {
		usageErr("-timeout must be >= 0, got %v", *timeout)
	}
	if *leaseTTL < 0 {
		usageErr("-lease-ttl must be >= 0, got %v", *leaseTTL)
	}
	if *maxAttempts < 0 {
		usageErr("-max-attempts must be >= 0, got %d", *maxAttempts)
	}
	if mode == modeSingle {
		if *ckEvery > 0 && *ckOut == "" {
			usageErr("-checkpoint-every requires -checkpoint-out")
		}
		if *ckOut != "" && *ckEvery == 0 {
			usageErr("-checkpoint-out requires -checkpoint-every")
		}
	}
	if mode == modeExp {
		// No driver's page is above the Table III default, the widest
		// stripe: a channel count that shards it shards every driver's.
		if _, err := experiments.CellConfig("", "", 0, 0, *channels, 0, 0); err != nil {
			usageErr("-channels: %v", err)
		}
	}

	// Every mode runs under one signal-aware context: the first SIGINT or
	// SIGTERM cancels it (single runs stop at the next cancellation poll,
	// sweeps between cells, the coordinator drains its workers) and the
	// process exits with the conventional 130. A second signal kills the
	// process immediately via the restored default handler.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		// After the first signal cancels ctx, unregister the handler so a
		// second signal gets the default disposition and kills a stuck drain.
		<-ctx.Done()
		stopSignals()
	}()
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "hmsim: %v\n", err)
		if ctx.Err() != nil {
			os.Exit(130)
		}
		os.Exit(1)
	}

	if *workloadName != "" {
		if !slices.Contains(heteromem.Workloads(), *workloadName) {
			usageErr("unknown workload %q (want %s)", *workloadName, strings.Join(heteromem.Workloads(), ", "))
		}
		if _, _, err := core.ParseDesign(*design); err != nil {
			usageErr("unknown design %q (want n, n-1, live, or none)", *design)
		}
		sp, err := scheme.Parse(*schemeName)
		if err != nil {
			usageErr("%v", err)
		}
		c := singleRunConfig{
			Workload: *workloadName, Design: *design, Scheme: *schemeName, Interval: *interval, Page: *page,
			Channels: *channels,
			Records:  *records, Warmup: *warmup, Seed: *seed,
			Metrics: *metrics, Audit: *audit,
			Fault: heteromem.FaultConfig{
				Seed:          *faultSeed,
				DeviceRate:    *faultDevice,
				CopyRate:      *faultCopy,
				BulkRate:      *faultBulk,
				Schedule:      *faultSchedule,
				RetryBudget:   *faultRetries,
				RetryBackoff:  *faultBackoff,
				RetireAfter:   *faultRetire,
				DegradeBudget: *faultDegrade,
			},
			TraceOut: *traceOut, SeriesOut: *seriesOut,
			CheckpointOut: *ckOut, CheckpointEvery: *ckEvery, ResumeFrom: *resume,
		}
		if sp.IsCache() {
			// A pure cache scheme runs no migration engine, so the
			// migration-only flags would be silently meaningless; reject
			// them outright (memcache keeps its memory part migrating and
			// so keeps these flags).
			for _, name := range []string{"design", "interval", "audit"} {
				if set[name] {
					usageErr("-%s does not apply to scheme %s (no migration engine)", name, sp)
				}
			}
			c.Design, c.Interval = "none", 0
		}
		if _, err := c.config(); err != nil {
			usageErr("%v", err)
		}
		// Profiling brackets the simulation itself; the profile files are
		// finalized before any error exit so a failed run still profiles.
		var cpuFile *os.File
		if *cpuProfile != "" {
			f, err := os.Create(*cpuProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hmsim: %v\n", err)
				os.Exit(1)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "hmsim: cpu profile: %v\n", err)
				os.Exit(1)
			}
			cpuFile = f
		}
		runErr := singleRun(ctx, os.Stdout, c)
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "hmsim: cpu profile: %v\n", err)
				os.Exit(1)
			}
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hmsim: %v\n", err)
				os.Exit(1)
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "hmsim: heap profile: %v\n", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "hmsim: heap profile: %v\n", err)
				os.Exit(1)
			}
		}
		if runErr != nil {
			fail(runErr)
		}
		return
	}

	if *workerAddr != "" {
		name := *workerName
		if name == "" {
			host, _ := os.Hostname()
			name = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		journal, closeJournal, err := openJournal(*journalOut, "worker", name)
		if err != nil {
			fail(err)
		}
		err = dsweep.RunWorker(ctx, *workerAddr, dsweep.WorkerConfig{
			Name:    name,
			Journal: journal,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "hmsim: "+format+"\n", args...)
			},
		})
		closeJournal()
		if err != nil {
			fail(err)
		}
		return
	}

	if *coordinate != "" {
		if *manifest == "" {
			usageErr("-coordinate requires -manifest (the durable sweep ledger)")
		}
		recs := *records
		if recs == 0 {
			recs = 1_000_000
		}
		wu := *warmup
		if wu == 0 {
			wu = recs / 2
		}
		var wls []string
		if *workloads != "" {
			wls = strings.Split(*workloads, ",")
		}
		var schs []string
		if *schemes != "" {
			schs = strings.Split(*schemes, ",")
		}
		cells, err := buildCells(wls, strings.Split(*designs, ","), schs, dsweep.CellSpec{
			Seed: *seed, PageSize: *page, Interval: *interval,
			Records: recs, Warmup: wu, Channels: *channels,
		})
		if err != nil {
			usageErr("%v", err)
		}
		host, _ := os.Hostname()
		journal, closeJournal, err := openJournal(*journalOut, "coordinator", fmt.Sprintf("%s-%d", host, os.Getpid()))
		if err != nil {
			fail(err)
		}
		_, err = runCoordinator(ctx, os.Stdout, coordRunConfig{
			Addr: *coordinate, Cells: cells, Manifest: *manifest, Listen: *listen,
			LeaseTTL: *leaseTTL, CheckpointEvery: *ckEvery,
			SpillDir: *spillDir, MaxAttempts: *maxAttempts,
			Journal: journal,
			OnListen: func(workerAddr, telemetryAddr string) {
				fmt.Fprintf(os.Stderr, "hmsim: coordinator leasing %d cells on %s\n", len(cells), workerAddr)
				if telemetryAddr != "" {
					fmt.Fprintf(os.Stderr, "hmsim: telemetry listening on http://%s\n", telemetryAddr)
				}
			},
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "hmsim: "+format+"\n", args...)
			},
		})
		closeJournal()
		if err != nil {
			fail(err)
		}
		return
	}

	if *exp == "" {
		usageErr("-exp, -workload, -coordinate, or -worker required (use -list to see experiments)")
	}

	p := experiments.Params{Records: *records, Warmup: *warmup, Seed: *seed, Channels: *channels}
	registry := experiments.Registry()
	names := []string{*exp}
	if *exp == "all" {
		names = experiments.Names()
	}
	for _, name := range names {
		if _, ok := registry[name]; !ok {
			usageErr("unknown experiment %q (use -list)", name)
		}
	}
	if *workloads != "" {
		p.Workloads = strings.Split(*workloads, ",")
		known := append(workload.Names(), workload.ProgramNames()...)
		for _, w := range p.Workloads {
			if !slices.Contains(known, w) {
				usageErr("unknown workload %q in -workloads (want %s)", w, strings.Join(known, ", "))
			}
		}
		// Each driver runs over memory workloads or over programs (or
		// none): one that no -workloads name fits would run nothing.
		var fit []string
		for _, name := range names {
			def := experiments.DriverWorkloads(name)
			if def == nil || slices.ContainsFunc(p.Workloads, func(w string) bool { return slices.Contains(def, w) }) {
				fit = append(fit, name)
				continue
			}
			if *exp != "all" {
				usageErr("-workloads %s: %s runs over %s", *workloads, name, strings.Join(def, ", "))
			}
			fmt.Fprintf(os.Stderr, "hmsim: skipping %s: it runs over none of -workloads %s\n", name, *workloads)
		}
		names = fit
	}

	runCtx := ctx
	if *timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	err := runExperiments(runCtx, os.Stdout, expRunConfig{
		Names: names, Params: p, Listen: *listen, Manifest: *manifest,
		OnListen: func(addr string) {
			fmt.Fprintf(os.Stderr, "hmsim: telemetry listening on http://%s\n", addr)
		},
	})
	if err != nil {
		fail(err)
	}
}

// expRunConfig collects the experiment-mode inputs.
type expRunConfig struct {
	Names    []string
	Params   experiments.Params
	Listen   string            // telemetry listen address ("" disables)
	Manifest string            // sweep manifest JSONL path ("" disables)
	OnListen func(addr string) // called with the bound address once listening
}

// runExperiments runs the named drivers in order, optionally serving live
// sweep telemetry while they execute. The telemetry server is shut down
// cleanly whether the sweep finishes, fails, or the context is cancelled.
func runExperiments(ctx context.Context, w io.Writer, c expRunConfig) error {
	p := c.Params
	if c.Manifest != "" {
		man, err := experiments.OpenManifest(c.Manifest)
		if err != nil {
			return fmt.Errorf("manifest: %w", err)
		}
		defer func() {
			fmt.Fprintf(os.Stderr, "hmsim: manifest %s: %d cells ran, %d served from manifest\n",
				c.Manifest, man.Ran(), man.Hits())
			if err := man.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "hmsim: closing manifest: %v\n", err)
			}
		}()
		p.Manifest = man
	}
	if c.Listen != "" {
		tel := experiments.NewTelemetry()
		p.Telemetry = tel
		srv, err := serveTelemetry(c.Listen, tel)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		defer srv.Close()
		if c.OnListen != nil {
			c.OnListen(srv.Addr())
		}
	}
	registry := experiments.Registry()
	for _, name := range c.Names {
		if err := registry[name](ctx, w, p); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// buildCells expands a workloads x designs x schemes grid into validated
// sweep cells. base supplies the shared cell parameters (seed, page size,
// interval, record budget, warmup, channels); an empty workload list means
// every built-in workload, an empty scheme list means the default migration
// scheme. Pure cache schemes have no design dimension: they produce one
// cell per workload with design "none", regardless of the -designs grid.
func buildCells(workloads, designs, schemes []string, base dsweep.CellSpec) ([]dsweep.CellSpec, error) {
	if len(workloads) == 0 {
		workloads = heteromem.Workloads()
	}
	if len(schemes) == 0 {
		schemes = []string{"migrate"}
	}
	cells := make([]dsweep.CellSpec, 0, len(workloads)*len(designs)*len(schemes))
	for _, wl := range workloads {
		for _, sch := range schemes {
			sch = strings.TrimSpace(sch)
			sp, err := scheme.Parse(sch)
			if err != nil {
				return nil, err
			}
			ds, interval := designs, base.Interval
			if sp.IsCache() {
				ds, interval = []string{"none"}, 0
			}
			for _, d := range ds {
				spec := base
				spec.Workload = strings.TrimSpace(wl)
				spec.Design = strings.TrimSpace(d)
				spec.Interval = interval
				if sch != "" && sch != "migrate" {
					spec.Scheme = sch
				}
				if err := spec.Validate(); err != nil {
					return nil, err
				}
				cells = append(cells, spec)
			}
		}
	}
	return cells, nil
}

// coordRunConfig collects the coordinator-mode inputs.
type coordRunConfig struct {
	Addr            string // worker listen address
	Cells           []dsweep.CellSpec
	Manifest        string        // durable sweep ledger JSONL path (required)
	Listen          string        // telemetry listen address ("" disables)
	LeaseTTL        time.Duration // 0 = dsweep default
	CheckpointEvery uint64        // 0 = dsweep default
	SpillDir        string
	MaxAttempts     int           // 0 = dsweep default
	Journal         *flog.Journal // structured lifecycle journal (nil disables)

	OnListen func(workerAddr, telemetryAddr string) // called once both servers are bound
	Logf     func(format string, args ...any)
}

// openJournal opens (appending) the structured JSONL journal at path. An
// empty path yields a nil journal — every emit is then a no-op. The
// returned closer flushes the file and reports a latched write error to
// stderr; the journal is an observability artifact, so journal trouble
// never fails the sweep itself.
func openJournal(path, role, node string) (*flog.Journal, func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal-out: %w", err)
	}
	j := flog.New(f, role, node)
	return j, func() {
		if err := j.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "hmsim: journal %s: %v\n", path, err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hmsim: closing journal %s: %v\n", path, err)
		}
	}, nil
}

// runCoordinator serves one distributed sweep: it opens the manifest,
// optionally serves telemetry, leases cells to workers until every cell is
// complete (or the context is cancelled, which drains workers gracefully),
// and emits the final stats as JSON.
func runCoordinator(ctx context.Context, w io.Writer, c coordRunConfig) (dsweep.Stats, error) {
	man, err := experiments.OpenManifest(c.Manifest)
	if err != nil {
		return dsweep.Stats{}, fmt.Errorf("manifest: %w", err)
	}
	defer func() {
		if err := man.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hmsim: closing manifest: %v\n", err)
		}
	}()

	var tel *experiments.Telemetry
	telAddr := ""
	if c.Listen != "" {
		tel = experiments.NewTelemetry()
		srv, err := serveTelemetry(c.Listen, tel)
		if err != nil {
			return dsweep.Stats{}, fmt.Errorf("telemetry: %w", err)
		}
		defer srv.Close()
		telAddr = srv.Addr()
	}

	coord, err := dsweep.NewCoordinator(dsweep.CoordinatorConfig{
		Cells:           c.Cells,
		Manifest:        man,
		Telemetry:       tel,
		LeaseTTL:        c.LeaseTTL,
		CheckpointEvery: c.CheckpointEvery,
		SpillDir:        c.SpillDir,
		MaxAttempts:     c.MaxAttempts,
		Logf:            c.Logf,
		Journal:         c.Journal,
	})
	if err != nil {
		return dsweep.Stats{}, err
	}
	ln, err := net.Listen("tcp", c.Addr)
	if err != nil {
		return dsweep.Stats{}, err
	}
	if c.OnListen != nil {
		c.OnListen(ln.Addr().String(), telAddr)
	}
	serveErr := coord.Serve(ctx, ln)
	stats := coord.Stats()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Manifest string
		dsweep.Stats
	}{Manifest: c.Manifest, Stats: stats}); err != nil && serveErr == nil {
		serveErr = err
	}
	return stats, serveErr
}

// telemetryServer is the live sweep-telemetry HTTP server.
type telemetryServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// serveTelemetry binds addr and serves t's endpoints until Close.
func serveTelemetry(addr string, t *experiments.Telemetry) (*telemetryServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &telemetryServer{ln: ln, srv: &http.Server{Handler: t.Handler()}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "hmsim: telemetry server: %v\n", err)
		}
	}()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *telemetryServer) Addr() string { return s.ln.Addr().String() }

// Close drains the server gracefully, bounded by a short timeout so a hung
// client cannot wedge shutdown.
func (s *telemetryServer) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	<-s.done
}

// singleRunConfig collects the single-run flags.
type singleRunConfig struct {
	Workload string
	Design   string // a core.ParseDesign name
	Scheme   string // on-package scheme name ("" = migrate)
	Interval uint64
	Page     uint64
	Channels int
	Records  uint64
	Warmup   uint64
	Seed     int64
	Metrics  bool
	Audit    bool
	Fault    heteromem.FaultConfig

	TraceOut  string // Chrome trace-event JSON destination ("" disables)
	SeriesOut string // per-epoch JSONL destination ("" disables)

	CheckpointOut   string // checkpoint file, atomically replaced ("" disables)
	CheckpointEvery uint64 // records between checkpoints
	ResumeFrom      string // checkpoint file to resume from ("" disables)
}

// singleRunOutput is the JSON document single-run mode emits.
type singleRunOutput struct {
	Workload string
	Design   string
	Scheme   string `json:",omitempty"`
	Interval uint64
	PageSize uint64 `json:",omitempty"`
	Channels int    `json:",omitempty"`
	Records  uint64
	Seed     int64
	Result   heteromem.Result
}

// config builds the run's configuration with experiments.CellConfig, the
// builder of every sweep cell, and checks it as a whole. The resume
// checkpoint is read only when the run starts.
func (c singleRunConfig) config() (sim.Config, error) {
	records := c.Records
	if records == 0 {
		records = 1_000_000
	}
	cfg, err := experiments.CellConfig(c.Design, c.Scheme, c.Page, c.Interval, c.Channels, records, c.Warmup)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.Metrics, cfg.Audit, cfg.Fault = c.Metrics, c.Audit, c.Fault
	if c.TraceOut != "" {
		cfg.SpanTrace = 1 << 20
	}
	if c.SeriesOut != "" {
		cfg.EpochSeries = 1 << 16
	}
	if c.CheckpointOut != "" {
		cfg.CheckpointEvery = c.CheckpointEvery
		cfg.CheckpointSink = func(data []byte, n uint64) error {
			return snap.WriteFile(c.CheckpointOut, data, 0o644)
		}
	}
	return cfg, cfg.Validate()
}

func singleRun(ctx context.Context, w io.Writer, c singleRunConfig) error {
	cfg, err := c.config()
	if err != nil {
		return err
	}
	if c.ResumeFrom != "" {
		if cfg.Resume, err = os.ReadFile(c.ResumeFrom); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
	}
	gen, err := workload.NewMemory(c.Workload, c.Seed)
	if err != nil {
		return err
	}
	res, err := sim.RunContext(ctx, gen, cfg)
	if err != nil {
		return err
	}
	if c.TraceOut != "" {
		if err := writeTraceFile(c.TraceOut, res.Spans); err != nil {
			return err
		}
		// The file is the deliverable; keep the stdout JSON readable.
		res.Spans, res.SpansDropped = nil, 0
	}
	if c.SeriesOut != "" {
		if err := writeSeriesFile(c.SeriesOut, res.Series); err != nil {
			return err
		}
		res.Series, res.SeriesDropped = nil, 0
	}
	out := singleRunOutput{
		Workload: c.Workload,
		Design:   c.Design,
		Scheme:   c.Scheme,
		Interval: c.Interval,
		PageSize: c.Page,
		Channels: c.Channels,
		Records:  res.Records,
		Seed:     c.Seed,
		Result:   res,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// printCheckpointInfo validates a checkpoint file and prints its metadata.
func printCheckpointInfo(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	info, err := heteromem.InspectCheckpoint(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		File string
		heteromem.CheckpointInfo
		ConfigDigestHex string
	}{File: path, CheckpointInfo: info, ConfigDigestHex: fmt.Sprintf("%016x", info.ConfigDigest)})
}

// writeTraceFile writes the span trace as Chrome trace-event JSON.
func writeTraceFile(path string, spans []heteromem.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := heteromem.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	return f.Close()
}

// writeSeriesFile writes the per-epoch time series as JSONL, one sample
// per line.
func writeSeriesFile(path string, series []heteromem.EpochSample) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range series {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("series-out: %w", err)
		}
	}
	return f.Close()
}
