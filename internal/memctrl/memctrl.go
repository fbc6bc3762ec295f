// Package memctrl implements the on-chip memory controllers of Fig. 2 and
// Fig. 3. The conventional controller resolves DRAM indices after
// transaction scheduling and knows a single region; the heterogeneity-aware
// controller moves address translation ahead of scheduling, routes each
// access to the on-package or off-package region, schedules the two regions
// independently, and hosts the optional migration controller.
package memctrl

import (
	"fmt"

	"heteromem/internal/backoff"
	"heteromem/internal/check"
	"heteromem/internal/config"
	"heteromem/internal/core"
	"heteromem/internal/dram"
	"heteromem/internal/fault"
	"heteromem/internal/obs"
	"heteromem/internal/power"
	"heteromem/internal/sched"
	"heteromem/internal/scheme"
	"heteromem/internal/stats"
)

// Region identifies a memory region.
type Region int

// The two regions of the heterogeneous space.
const (
	OnPackage Region = iota
	OffPackage
)

// String names the region.
func (r Region) String() string {
	if r == OnPackage {
		return "on-package"
	}
	return "off-package"
}

// tag names the region in metric names ("memctrl.access.on", "dram.off.*").
func (r Region) tag() string {
	if r == OnPackage {
		return "on"
	}
	return "off"
}

// AccessResult reports one completed program access.
type AccessResult struct {
	Phys    uint64
	Machine uint64
	Region  Region
	Issue   int64 // cycle the core issued the access
	Done    int64 // cycle the data returned to the core
	Write   bool
}

// Latency returns the end-to-end latency in cycles.
func (a AccessResult) Latency() int64 { return a.Done - a.Issue }

// Config assembles a heterogeneity-aware controller.
type Config struct {
	Geometry  config.MemoryGeometry
	Latencies config.Latencies
	OffTiming config.DDR3Timing
	OnTiming  config.DDR3Timing
	Sched     sched.Config

	// Migration selects dynamic migration; nil means static mapping
	// (lowest addresses on-package).
	Migration *core.Options

	// Scheme selects the on-package capacity policy (internal/scheme).
	// The zero value is the paper's migration scheme and leaves every code
	// path byte-identical to pre-scheme builds. Scheme.CheckMigration
	// says which Migration and Audit settings it takes; memcache runs
	// Migration over the memory share of the capacity.
	Scheme scheme.Spec

	// OSAssisted charges the OS epoch overhead (user/kernel switch) on
	// every epoch boundary instead of assuming hardware table updates.
	OSAssisted bool

	// Power meters traffic when non-nil.
	Power *power.Meter

	// Obs receives runtime metrics (counters, latency histograms) and,
	// when a span tracer or series sampler is enabled on it, the
	// cycle-domain span trace and the per-epoch series. nil disables
	// observability at zero hot-path cost.
	Obs *obs.Registry

	// Audit attaches an invariant auditor (internal/check) to the
	// migration pipeline: the translation table is verified after every
	// completed swap step and at every quiescent point. Violations
	// surface as errors from Access and Err.
	Audit bool

	// CopyHop is a fixed interconnect latency added to the start of every
	// swap copy read leg. A multi-channel hub sets it so the copy traffic of
	// a sharded machine pays the hub-interconnect hop a cross-channel
	// transfer would traverse; zero (the single-controller default) leaves
	// the copy pipeline byte-identical to earlier builds.
	CopyHop int64

	// Fault configures deterministic fault injection (internal/fault):
	// DRAM device bursts, migration copy legs, and step completions can be
	// failed by rate or schedule, and the controller responds with bounded
	// retry, swap rollback, slot retirement, or degraded mode instead of
	// latching an error. The zero value disables injection entirely and
	// leaves every code path byte-identical to a fault-free build.
	Fault fault.Config
}

// Controller is the heterogeneity-aware on-chip memory controller.
type Controller struct {
	cfg Config

	regions [2]region // indexed by Region

	mig *core.Migrator

	// The capacity policy (internal/scheme). cache is the block-grain
	// engine of the cache schemes and stays nil under the default migration
	// scheme, which keeps the pre-scheme code paths (and their goldens)
	// untouched. onCap is the machine-space boundary of the on-package
	// region: the full on-package capacity normally, the memory-part size
	// under memcache. migSlots is how many on-package frames the migrator
	// manages (all of them except under memcache).
	cache    scheme.Cache
	onCap    uint64
	migSlots uint64

	// Freelists for the per-access and per-copy-leg objects. Access metadata
	// lives in the Request itself and leg metadata hangs off BulkJob.Meta
	// (intrusive), so the steady-state data path allocates nothing: completed
	// objects are recycled as soon as their completion callback returns.
	reqs freelist[sched.Request]
	jobs freelist[sched.BulkJob]
	legs freelist[legMeta]

	step *stepState // in-flight N-1/Live swap step

	stallUntil int64 // N design: execution halted until this cycle
	osPenalty  int64 // accumulated but not yet applied OS epoch cost
	now        int64 // the controller's clock: the latest program-access cycle

	allLat stats.LatencyStat
	hist   stats.Histogram

	// DRAM access latency (queue + device service, no controller/wire
	// path): the quantity the paper's Section IV trace simulation reports.
	dramAll stats.LatencyStat

	coreLatSum int64 // DRAM-core portion, for the effectiveness metric
	nDone      uint64
	queueSum   int64 // queue-wait portion of dramAll, for the series split

	// Span begin cycles for the background (N-1/Live) swap pipeline; the
	// matching span is recorded when the step/swap/rollback completes.
	swapBegin  int64
	stepBegin  int64
	rollBegin  int64
	swapMRU    uint64
	swapVictim uint64

	onResult func(AccessResult)
	reqID    uint64

	// onCopyDone, when set, observes every completed sub-block copy
	// (write leg finished); integrity tests use it to maintain a shadow
	// map of where every page's data lives.
	onCopyDone func(core.SubCopy)

	inst instruments    // observability instruments (all nil-safe)
	aud  *check.Auditor // invariant auditor; nil when auditing is off

	// firstErr latches the first asynchronous failure (audit violation or
	// swap-step error inside a scheduler callback, where no error can be
	// returned); Access and Err surface it.
	firstErr error

	// Fault-injection state (inj == nil means injection is off and none of
	// the fields below are ever touched).
	inj            *fault.Injector
	retry          backoff.Exponential // shared retry-delay policy (internal/backoff)
	faultRep       fault.Report        // disposition ledger (Account per fault)
	frameFaults    []int               // per on-package frame: cumulative faults
	retireQueue    []int               // slots awaiting quiescent retirement
	retireQueued   []bool              // per slot: queued or already retired
	undoQueue      []core.SubCopy      // remaining rollback copies, run one at a time
	stepAttempts   int                 // restarts consumed by the current step
	degradePending bool                // degrade once the in-flight swap quiesces
	degradedMode   bool                // migration permanently frozen
}

// region is one of the two regions the Fig. 3 controller schedules
// independently: its DRAM device and scheduler, the fixed path delays
// around them, the latency of the accesses it served, and its
// instruments. The fields the per-access path reads come first.
type region struct {
	sch     *sched.Scheduler
	in, out int64 // fixed inbound and outbound path delays

	lat  stats.LatencyStat // end-to-end latency of the accesses served here
	dram stats.LatencyStat // their DRAM latency (queue + device service)

	// Observability instruments; nil-safe like the rest of instruments.
	acc      *obs.Counter   // program accesses
	latHist  *obs.Histogram // end-to-end latency
	qlatHist *obs.Histogram // queue wait

	dev      *dram.Device
	channels int      // device channels; a macro page maps to page % channels
	lane     obs.Lane // span-trace lane of its copy legs
}

// side returns the on-package region when on is set, else the off-package
// one. The branch, unlike an index computed from on, leaves the per-access
// path without a bounds check.
func (c *Controller) side(on bool) *region {
	if on {
		return &c.regions[OnPackage]
	}
	return &c.regions[OffPackage]
}

// instruments holds the controller's observability hooks (each region
// holds its own three). Every field is nil-safe: with Config.Obs == nil all
// pointers are nil and every record call degrades to a single pointer test.
type instruments struct {
	pstalls     *obs.Counter // accesses redirected to Ω by a P bit
	swapStarts  *obs.Counter
	swapSteps   *obs.Counter
	swapDone    *obs.Counter
	copySubs    *obs.Counter       // landed sub-block copies: forward, undo and retirement
	copyBytes   *obs.Counter       // bytes of those copies
	stallCycles *obs.Counter       // N-design execution stall cycles
	osPenalties *obs.Counter       // OS-assisted epoch charges
	spans       *obs.SpanTracer    // cycle-domain span trace
	series      *obs.SeriesSampler // per-epoch time series
	enabled     bool               // any instrument live (guards extra lookups)
}

type legMeta struct {
	step     *stepState
	sub      core.SubCopy
	isRead   bool
	dstOn    bool
	attempts int // faulted attempts of this leg so far
}

type stepState struct {
	subsLeft  int
	undo      bool  // rollback mini-step (no table mutation on completion)
	aborted   bool  // swap aborted; in-flight legs of this step are stale
	completed []int // sub indices whose write leg landed (rollback needs them)
}

// schemeJob is the BulkJob.Meta sentinel distinguishing cache-scheme
// background traffic (fills, writebacks, victim reads, parallel probes,
// wasted predictor fetches) from migration copy legs. The five instances
// are the entries of schemeJobs; kind selects the completion accounting
// and tags them in checkpoints.
type schemeJob struct {
	on   bool  // region whose bus the job occupies
	kind uint8 // checkpoint tag (sjKind*)
}

// Bulk-job kind tags in checkpoints: 0 is a migration copy leg.
const (
	sjKindFill uint8 = iota + 1
	sjKindWB
	sjKindVictimRd
	sjKindProbe
	sjKindWasted
)

// schemeJobs is the read-only sentinel table, indexed by kind (entry 0,
// a migration copy leg, is never used). Every controller shares it: no
// field is ever written, so concurrent shards may too.
var schemeJobs = [...]schemeJob{
	sjKindFill:     {on: true, kind: sjKindFill},
	sjKindWB:       {on: false, kind: sjKindWB},
	sjKindVictimRd: {on: true, kind: sjKindVictimRd},
	sjKindProbe:    {on: true, kind: sjKindProbe},
	sjKindWasted:   {on: false, kind: sjKindWasted},
}

// Request.Stage values for the cache schemes' multi-leg accesses. Stage 0
// is a plain data access (every request of the default scheme).
const (
	stageTagHit   uint8 = iota + 1 // serial tag read; data follows on-package
	stageTagMiss                   // serial tag/TAD read; data follows off-package
	stageMissData                  // off-package miss data; owes the fill at completion
)

// New builds the controller. onResult may be nil.
func New(cfg Config, onResult func(AccessResult)) (*Controller, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	g, l := cfg.Geometry, cfg.Latencies
	c := &Controller{cfg: cfg, onResult: onResult}
	for i, p := range [2]struct {
		channels, banks int
		timing          config.DDR3Timing
		pin, wireRT     int64 // one-way pin delay, round-trip wiring delay
		lane            obs.Lane
	}{
		{g.OnChannels, g.OnBanksPerCh, cfg.OnTiming, l.InterposerOneWay, l.IntraPackageRT, obs.LaneSchedOn},
		{g.OffChannels, g.OffBanksPerCh, cfg.OffTiming, l.PackagePinOneWay, l.PCBWireRoundTrip, obs.LaneSchedOff},
	} {
		dev, err := dram.New(dram.Geometry{
			Channels:   p.channels,
			BanksPerCh: p.banks,
			RowBytes:   g.RowSize,
			BurstBytes: g.BurstBytes,
		}, p.timing)
		if err != nil {
			return nil, fmt.Errorf("memctrl: %v device: %w", Region(i), err)
		}
		sch, err := sched.New(dev, cfg.Sched, c.requestDone, c.bulkDone)
		if err != nil {
			return nil, err
		}
		// The fixed path: controller processing and the core link inbound;
		// package pins and the PCB or interposer wiring split across both
		// directions.
		c.regions[i] = region{
			sch:      sch,
			in:       l.MemCtrlProcessing + l.CtrlToCoreOneWay + p.pin + p.wireRT/2,
			out:      l.CtrlToCoreOneWay + p.pin + (p.wireRT - p.wireRT/2),
			dev:      dev,
			channels: p.channels,
			lane:     p.lane,
		}
	}
	if err := cfg.Scheme.Validate(); err != nil {
		return nil, fmt.Errorf("memctrl: %w", err)
	}
	if err := cfg.Scheme.CheckMigration(cfg.Migration != nil, cfg.Audit); err != nil {
		return nil, fmt.Errorf("memctrl: %w", err)
	}
	c.onCap = g.OnPackageCapacity
	c.migSlots = uint64(g.OnPackageSlots())
	switch cfg.Scheme.Kind {
	case scheme.KindAlloy, scheme.KindCacheMode:
		if cfg.Scheme.Kind == scheme.KindAlloy {
			a, aerr := scheme.NewAlloy(cfg.Scheme, g.OnPackageCapacity, 0, g.BurstBytes)
			if aerr != nil {
				return nil, fmt.Errorf("memctrl: %w", aerr)
			}
			c.cache = a
		} else {
			tc, terr := scheme.NewTagCache(cfg.Scheme, g.OnPackageCapacity, g.BurstBytes)
			if terr != nil {
				return nil, fmt.Errorf("memctrl: %w", terr)
			}
			c.cache = tc
		}
	case scheme.KindMemCache:
		mc, merr := scheme.NewMemCache(cfg.Scheme, g.OnPackageCapacity, g.MacroPageSize, g.BurstBytes)
		if merr != nil {
			return nil, fmt.Errorf("memctrl: %w", merr)
		}
		c.cache = mc
		c.onCap = mc.MemBytes()
		c.migSlots = mc.MemBytes() / g.MacroPageSize
	}
	var err error
	if cfg.Migration != nil {
		opt := *cfg.Migration
		opt.Slots = c.migSlots
		opt.TotalPages = g.TotalPages()
		opt.PageSize = g.MacroPageSize
		opt.SubBlockSize = g.SubBlockSize
		c.mig, err = core.NewMigrator(opt)
		if err != nil {
			return nil, err
		}
		if cfg.Audit {
			c.aud = check.New(c.mig.Table(), c.mig.Design())
		}
	}
	c.inj, err = fault.New(cfg.Fault)
	if err != nil {
		return nil, fmt.Errorf("memctrl: %w", err)
	}
	c.retry = c.inj.BackoffPolicy()
	if c.inj != nil {
		c.frameFaults = make([]int, g.OnPackageSlots())
		c.retireQueued = make([]bool, g.OnPackageSlots())
		hook := func(dram.Location, bool, int64) bool {
			return c.inj.Fault(fault.PointDevice)
		}
		for i := range c.regions {
			c.regions[i].dev.SetFaultHook(hook)
			c.regions[i].sch.SetFaultHandler(c.deviceFault)
		}
	}
	if reg := cfg.Obs; reg != nil {
		c.inst = instruments{
			pstalls:     reg.Counter("memctrl.pstall.redirects"),
			swapStarts:  reg.Counter("memctrl.swap.started"),
			swapSteps:   reg.Counter("memctrl.swap.steps"),
			swapDone:    reg.Counter("memctrl.swap.completed"),
			copySubs:    reg.Counter("memctrl.copy.sub_blocks"),
			copyBytes:   reg.Counter("memctrl.copy.bytes"),
			stallCycles: reg.Counter("memctrl.stall.cycles"),
			osPenalties: reg.Counter("memctrl.os.epoch_penalties"),
			spans:       reg.Spans(),
			series:      reg.Series(),
			enabled:     true,
		}
		lb := obs.DefaultLatencyBuckets()
		for i := range c.regions {
			rg, tag := &c.regions[i], Region(i).tag()
			rg.acc = reg.Counter("memctrl.access." + tag)
			rg.latHist = reg.Histogram("memctrl.lat."+tag, lb)
			rg.qlatHist = reg.Histogram("memctrl.qlat."+tag, lb)
			rg.sch.SetObs(reg.Counter("sched."+tag+".aging_grants"), reg.Counter("sched."+tag+".stolen_cycles"))
		}
	}
	return c, nil
}

// Err returns the first failure recorded inside a scheduler callback —
// an invariant-audit violation or a swap-step error — where no error
// could be returned directly. Check it after Flush.
func (c *Controller) Err() error { return c.firstErr }

// fail latches the first asynchronous failure.
func (c *Controller) fail(err error) {
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// audit runs the invariant auditor at a swap-step boundary; quiescent
// selects the stricter no-swap-in-flight rules.
func (c *Controller) audit(quiescent bool) {
	if c.aud == nil {
		return
	}
	var err error
	if quiescent {
		err = c.aud.AuditQuiescent()
	} else {
		err = c.aud.AuditStep()
	}
	if err != nil {
		c.fail(err)
	}
}

// Migrator exposes the migration controller (nil under static mapping).
func (c *Controller) Migrator() *core.Migrator { return c.mig }

// freelist recycles one kind of pooled object. The scheduler dequeues a
// request or job before invoking its completion callback, so recycling
// inside that callback is safe.
type freelist[T any] struct{ free []*T }

// get pops a zeroed object off the list, or allocates one while the pool
// warms up.
func (f *freelist[T]) get() *T {
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free = f.free[:n-1]
		var zero T
		*x = zero
		return x
	}
	return new(T)
}

func (f *freelist[T]) put(x *T) { f.free = append(f.free, x) }

// sampleSeries snapshots the cumulative pipeline counters into the
// per-epoch series. Called at every epoch boundary and once at flush
// (final=true); no-op when sampling is disabled.
func (c *Controller) sampleSeries(cycle int64, final bool) {
	if c.inst.series == nil {
		return
	}
	sample := obs.EpochSample{
		Cycle:       cycle,
		Final:       final,
		AccOn:       c.regions[OnPackage].acc.Value(),
		AccOff:      c.regions[OffPackage].acc.Value(),
		PStalls:     c.inst.pstalls.Value(),
		StallCycles: c.inst.stallCycles.Value(),
		OSPenalties: c.inst.osPenalties.Value(),
		DRAMLatSum:  c.dramAll.Sum(),
		DRAMLatN:    c.dramAll.Count(),
		QueueLatSum: c.queueSum,
	}
	if c.mig != nil {
		st := c.mig.Stats()
		sample.Epoch = st.Epochs
		sample.SwapsStarted = st.SwapsStarted
		sample.SwapsCompleted = st.SwapsCompleted
		sample.SwapsRolledBack = st.SwapsRolledBack
	}
	if rep := c.FaultReport(); rep != nil {
		sample.FaultsInjected = rep.Injected
		sample.FaultsRetried = rep.Retried
		sample.FaultsRetired = rep.Retired
		sample.FaultsDegraded = rep.Degraded
	}
	c.inst.series.Record(sample)
}

// Access processes one program access issued at cycle `now`.
func (c *Controller) Access(phys uint64, write bool, now int64) error {
	if c.firstErr != nil {
		return c.firstErr
	}
	if now > c.now {
		c.now = now
	}
	for i := range c.regions {
		c.regions[i].sch.Advance(c.now)
	}

	if c.cache != nil && c.mig == nil {
		// Pure cache scheme (alloy, cachemode): no migration engine, no
		// stalls, no OS penalties — the capacity policy is the cache
		// engine plus the request chain cacheRoute submits.
		c.cacheRoute(phys, phys, write, now)
		return nil
	}

	issue := now
	if c.stallUntil > issue {
		issue = c.stallUntil // N design halts execution during a swap
	}
	if c.osPenalty > 0 {
		issue += c.osPenalty
		c.osPenalty = 0
	}
	if c.inj != nil {
		// Run deferred fault responses (slot retirement, pending degrade)
		// before translating: they may remap the page being accessed.
		c.serviceQuiescent(issue)
	}

	machine, onPkg := c.translate(phys)
	rg := c.side(onPkg)
	if onPkg || c.cache == nil {
		// Under memcache an off-package page still gets the cache part's
		// say; cacheRoute counts the access once the hit side is known.
		rg.acc.Inc()
	}

	if c.mig != nil {
		if c.inst.enabled {
			// A set P bit forces this page's RAM-direction translation to
			// Ω while its new off-package home is still being written —
			// the access "stalls" on the slow region it would otherwise
			// have left behind.
			if page := phys / c.cfg.Geometry.MacroPageSize; c.mig.Table().Pending(page) {
				c.inst.pstalls.Inc()
				c.inst.spans.Mark(obs.LaneMigrator, obs.MarkPStall, now, page, 0, 0)
			}
		}
		c.mig.OnAccess(phys, onPkg)
		epochsBefore := c.mig.Epochs()
		subs := c.mig.EpochTick()
		if epochs := c.mig.Epochs(); epochs != epochsBefore {
			c.inst.spans.Mark(obs.LaneMigrator, obs.MarkEpoch, now, epochs, 0, 0)
			c.sampleSeries(now, false)
			if c.cfg.OSAssisted {
				// The OS periodical routine updates the software translation
				// table every epoch; its user/kernel switch stalls the core
				// (Section III-B: ~127 cycles, Liedtke SOSP'93).
				c.osPenalty += c.cfg.Latencies.OSEpochOverhead
				c.inst.osPenalties.Inc()
			}
		}
		if subs != nil {
			if err := c.beginSwap(subs, issue); err != nil {
				return err
			}
			if c.stallUntil > issue {
				issue = c.stallUntil
			}
		}
	}

	if c.cache != nil && !onPkg {
		// memcache: the page lives outside the memory part, so the cache
		// part gets a shot at it before the access pays the off-package trip.
		c.cacheRoute(phys, machine, write, issue)
		return nil
	}

	lookup := int64(0)
	if c.mig != nil {
		lookup = c.cfg.Latencies.TranslationLookup
	}
	arrive := issue + lookup + rg.in

	c.reqID++
	req := c.reqs.get()
	req.ID = c.reqID
	req.Arrive = arrive
	req.Write = write
	req.Phys = phys
	req.Machine = machine
	req.Issue = issue
	req.OnPkg = onPkg
	req.Addr = machine
	if !onPkg {
		req.Addr = machine - c.onCap
	}
	rg.sch.Submit(req, arrive)
	return nil
}

// schemeOffAddr maps a machine address to the off-package device space under
// a cache scheme. The pure caches back the whole physical space off-package;
// memcache stacks the off region above its memory part like the default
// scheme stacks it above the full capacity.
func (c *Controller) schemeOffAddr(machine uint64) uint64 {
	if c.mig != nil {
		return machine - c.onCap
	}
	return machine
}

// cacheRoute runs one access through the cache engine and submits the
// request chain it calls for. machine is the access's off-package home
// (equal to phys for the pure cache schemes); issue already includes any
// stall or OS penalty the caller charged.
func (c *Controller) cacheRoute(phys, machine uint64, write bool, issue int64) {
	res := c.cache.Lookup(phys, write)
	c.side(res.Hit).acc.Inc()

	// Background traffic the lookup owes. Each job occupies its region's bus
	// like a migration copy leg: scheduled into idle gaps, aged if starved.
	blk := c.cache.BlockBytes()
	if res.WB {
		if res.VictimRead {
			// The tag probe returned no data (cachemode), so the dirty
			// victim must be read before its off-package write.
			c.submitSchemeJob(sjKindVictimRd, res.Slot, blk, issue)
		}
		c.submitSchemeJob(sjKindWB, res.WBAddr, blk, issue)
	}
	if res.WastedOff {
		// Mispredicted hit: the off-package fetch was launched anyway and
		// burns off-package bandwidth.
		c.submitSchemeJob(sjKindWasted, machine, blk, issue)
	}
	if res.Probe && res.Parallel {
		// Predicted miss: the probe burst overlaps the off-package fetch
		// instead of gating it, so it rides the background queue too.
		c.submitSchemeJob(sjKindProbe, res.Slot, blk, issue)
	}

	lookup := int64(0)
	if c.mig != nil {
		lookup = c.cfg.Latencies.TranslationLookup
	}

	c.reqID++
	r := c.reqs.get()
	r.ID = c.reqID
	r.Write = write
	r.Phys = phys
	r.Issue = issue
	r.OnPkg = true
	switch {
	case res.Hit && !res.Probe:
		// One on-package burst (alloy TAD hit, or cachemode with a warm
		// SRAM tag buffer).
		r.Machine, r.Addr = res.Slot, res.Slot
	case res.Hit:
		// Serial in-DRAM tag read, then the data burst: ~2x one on-package
		// access, the L4 hit cost of the paper's Section II strawman.
		r.Machine, r.Addr = res.Slot, res.Slot
		r.Stage, r.Aux = stageTagHit, res.Slot
	case res.Probe && !res.Parallel:
		// Serial miss probe: the on-package tag/TAD read must answer before
		// the off-package fetch can launch.
		r.Machine, r.Addr = machine, res.Slot
		r.Stage, r.Aux = stageTagMiss, res.Slot
	default:
		// Straight off-package fetch (probe skipped or overlapped); the
		// fill into the cache slot is owed when the data lands.
		r.OnPkg = false
		r.Machine, r.Addr = machine, c.schemeOffAddr(machine)
		r.Stage, r.Aux = stageMissData, res.Slot
	}
	rg := c.side(r.OnPkg)
	r.Arrive = issue + lookup + rg.in
	rg.sch.Submit(r, r.Arrive)
}

// submitSchemeJob queues one block of scheme background traffic of the
// given kind on its region's bus. The address only picks the channel; the
// sentinel metadata selects the completion accounting.
func (c *Controller) submitSchemeJob(kind uint8, addr, bytes uint64, earliest int64) {
	sj := &schemeJobs[kind]
	c.submitBulk(sj.on, addr, addr, c.subDuration(sj.on, bytes, false), earliest, sj)
}

// schemeJobDone retires one scheme background job: meter its energy and
// recycle it. Fills and writebacks are block copies between the regions;
// probe and wasted-fetch bursts are plain accesses on their region.
func (c *Controller) schemeJobDone(sj *schemeJob, j *sched.BulkJob) {
	if c.cfg.Power != nil {
		blk := c.cache.BlockBytes()
		switch sj.kind {
		case sjKindFill:
			c.cfg.Power.Copy(false, true, blk, false)
		case sjKindWB:
			c.cfg.Power.Copy(true, false, blk, false)
		case sjKindVictimRd:
			// Bus-occupancy only: the paired writeback's Copy meters the
			// on-package read and off-package write energy.
		case sjKindProbe, sjKindWasted:
			c.cfg.Power.Access(sj.on, blk)
		}
	}
	c.jobs.put(j)
}

// translate maps a physical address to (machine address, onPackage), using
// the migration controller when present and the static MSB split otherwise.
func (c *Controller) translate(phys uint64) (uint64, bool) {
	if c.mig != nil {
		return c.mig.Translate(phys)
	}
	return phys, phys < c.cfg.Geometry.OnPackageCapacity
}

// requestDone finalizes a program access. The scheduler has already dequeued
// the request, so it is recycled into the pool on the way out. Cache-scheme
// requests with a non-zero Stage are intermediate legs: they chain the next
// leg (re-submitting mid-drain is safe — sched re-reads its queues at every
// drain iteration) and only the final leg reaches the latency accounting.
func (c *Controller) requestDone(r *sched.Request) {
	switch r.Stage {
	case stageTagHit:
		// Serial tag read answered on-package; the data burst follows in
		// the same region, back-to-back (the inbound path is already paid).
		if c.cfg.Power != nil {
			c.cfg.Power.Access(true, c.cfg.Geometry.BurstBytes)
		}
		r.Stage = 0
		r.Attempts = 0
		r.Addr = r.Aux
		r.Machine = r.Aux
		r.Arrive = r.Done
		r.Start, r.Done, r.CoreLat = 0, 0, 0
		c.regions[OnPackage].sch.Submit(r, c.now)
		return
	case stageTagMiss:
		// Serial probe confirmed the miss; fetch from off-package.
		if c.cfg.Power != nil {
			c.cfg.Power.Access(true, c.cfg.Geometry.BurstBytes)
		}
		off := &c.regions[OffPackage]
		r.Stage = stageMissData
		r.Attempts = 0
		r.OnPkg = false
		r.Addr = c.schemeOffAddr(r.Machine)
		r.Arrive = r.Done + off.in
		r.Start, r.Done, r.CoreLat = 0, 0, 0
		off.sch.Submit(r, c.now)
		return
	case stageMissData:
		// Miss data landed; the fill into the cache slot rides the
		// background queue. Fall through to the normal accounting: this is
		// the leg that returned data to the core.
		c.submitSchemeJob(sjKindFill, r.Aux, c.cache.BlockBytes(), r.Done)
		r.Stage = 0
	}
	rg := c.side(r.OnPkg)
	done := r.Done + rg.out
	lat := done - r.Issue
	dram := r.Done - r.Arrive
	wait := r.Start - r.Arrive
	c.allLat.Add(lat)
	c.hist.Add(lat)
	c.dramAll.Add(dram)
	c.queueSum += wait
	rg.lat.Add(lat)
	rg.dram.Add(dram)
	rg.latHist.Observe(lat)
	rg.qlatHist.Observe(wait)
	c.coreLatSum += r.CoreLat
	c.nDone++
	if c.cfg.Power != nil {
		c.cfg.Power.Access(r.OnPkg, c.cfg.Geometry.BurstBytes)
	}
	if c.onResult != nil {
		region := OffPackage
		if r.OnPkg {
			region = OnPackage
		}
		c.onResult(AccessResult{
			Phys: r.Phys, Machine: r.Machine, Region: region,
			Issue: r.Issue, Done: done, Write: r.Write,
		})
	}
	c.reqs.put(r)
}

// subDuration is the bus occupancy of one sub-block copy leg on a region:
// the burst transfers plus the row-activation cost amortized over the rows
// the sub-block spans (a page copy walks rows sequentially, so each
// activation covers a whole row of bursts and overlaps the pipeline).
func (c *Controller) subDuration(on bool, bytes uint64, exchange bool) int64 {
	t := c.side(on).dev.Timing()
	bursts := int64(bytes / c.cfg.Geometry.BurstBytes)
	activate := t.TRCD * int64(bytes) / int64(c.cfg.Geometry.RowSize)
	if activate == 0 {
		activate = t.TRCD // a sub-block smaller than a row still opens one
	}
	d := activate + bursts*t.TBurst
	if exchange {
		d += bursts * t.TBurst // data flows both ways through the line buffer
	}
	return d
}

// regionOfMachine reports whether a machine byte address is on-package from
// the migrator's point of view: below the full capacity normally, below the
// memory-part boundary under memcache.
func (c *Controller) regionOfMachine(machine uint64) bool {
	return machine < c.onCap
}

// beginSwap starts executing a swap plan. The N design runs it to
// completion immediately (execution is halted anyway); the N-1 designs
// enqueue the first step's legs as background traffic.
func (c *Controller) beginSwap(subs []core.SubCopy, now int64) error {
	c.inst.swapStarts.Inc()
	if mru, victim, _, _, ok := c.mig.CurrentPlan(); ok {
		c.swapMRU, c.swapVictim = mru, uint64(victim)
	}
	if c.mig.Design() == core.DesignN {
		return c.runStalledSwap(subs, now)
	}
	c.swapBegin, c.stepBegin = now, now
	c.stepAttempts = 0
	c.issueStep(&stepState{subsLeft: len(subs)}, subs, now)
	return nil
}

// issueStep makes st the in-flight step and enqueues the read legs of its
// copies. SubmitBulk may drain the scheduler reentrantly, and a leg drained
// there can abort st (starting a rollback under a new step), so issuing
// stops as soon as st is no longer the in-flight step: every leg belongs to
// the step that issued it.
func (c *Controller) issueStep(st *stepState, subs []core.SubCopy, earliest int64) {
	c.step = st
	for _, sc := range subs {
		if c.step != st {
			return
		}
		c.enqueueReadLeg(st, sc, earliest)
	}
}

// enqueueReadLeg submits the source-side transfer of one sub-block of st.
func (c *Controller) enqueueReadLeg(st *stepState, sc core.SubCopy, earliest int64) {
	srcOn := c.regionOfMachine(sc.Src)
	meta := c.legs.get()
	*meta = legMeta{step: st, sub: sc, isRead: true, dstOn: c.regionOfMachine(sc.Dst)}
	c.submitBulk(srcOn, sc.Src, uint64(sc.SubIndex), c.subDuration(srcOn, sc.Bytes, sc.Exchange), earliest+c.cfg.CopyHop, meta)
}

// submitBulk draws a background job from the pool and places it on the
// channel of the region that machine's macro page belongs to: DIMM space is
// interleaved at page granularity, so one page copy draws one channel's
// bandwidth — the paper's 374 us for a 4 MB page over DDR3-1333 is exactly
// that single-channel figure. It carries every copy leg and scheme job.
func (c *Controller) submitBulk(on bool, machine, tag uint64, dur, earliest int64, meta any) {
	j := c.jobs.get()
	j.Tag, j.Duration, j.Earliest, j.Meta = tag, dur, earliest, meta
	rg := c.side(on)
	rg.sch.SubmitBulk(c.pageChannel(rg, machine), j, c.now)
}

// pageChannel returns the channel of rg that a machine address's macro page
// is interleaved to.
func (c *Controller) pageChannel(rg *region, machine uint64) int {
	return int(machine / c.cfg.Geometry.MacroPageSize % uint64(rg.channels))
}

// bulkDone chains read leg -> write leg -> sub completion -> step/plan
// completion for background swaps. With fault injection on, every leg
// completion and every finished step is probed, and the ladder decides
// whether the faulted leg or step is retried, delivered anyway, or given up
// on.
func (c *Controller) bulkDone(j *sched.BulkJob) {
	if sj, ok := j.Meta.(*schemeJob); ok {
		c.schemeJobDone(sj, j)
		return
	}
	meta, _ := j.Meta.(*legMeta)
	if meta == nil {
		return
	}
	st := meta.step
	if st != nil && st.aborted {
		// Stale leg of an aborted (rolled-back or restarted) step.
		c.legs.put(meta)
		c.jobs.put(j)
		return
	}
	sub, done := meta.sub, j.Done
	if c.inj != nil && c.inj.Fault(fault.PointCopy) {
		exhausted := fault.RolledBack
		if st.undo {
			exhausted = fault.Degraded
		}
		switch c.ladder(fault.PointCopy, sub.Dst, !meta.isRead && meta.dstOn, meta.attempts, exhausted, done) {
		case rungAbsorbed:
			// The leg counts as delivered.
		case rungExhausted:
			c.legs.put(meta)
			c.jobs.put(j)
			if st.undo {
				c.finishRollback(done, true)
			} else {
				c.abortSwap(st, done)
			}
			return
		default:
			// Retry, retire or freeze: the leg still has to land.
			c.retryLeg(meta, j)
			return
		}
	}
	if meta.isRead {
		// The leg span covers the whole leg lifetime [Earliest, Done] —
		// queueing plus bus time, possibly split across stolen quanta.
		c.landCopy(sub, false, j.Earliest, done)
		// The read leg's metadata is reused for the write leg: same step and
		// sub-block, direction flipped, faulted-attempt count restarted.
		meta.isRead = false
		meta.attempts = 0
		c.submitBulk(meta.dstOn, sub.Dst, j.Tag, c.subDuration(meta.dstOn, sub.Bytes, sub.Exchange), done, meta)
		c.jobs.put(j)
		return
	}
	// Write leg finished: the sub-block now lives at its destination.
	c.landCopy(sub, true, j.Earliest, done)
	c.legs.put(meta)
	c.jobs.put(j)
	st.subsLeft--
	if st.undo {
		// Rollback mini-step: no table mutation, no copy-done notification
		// (the data is moving back where the shadow map already has it).
		c.startNextUndo(done)
		return
	}
	if c.onCopyDone != nil {
		c.onCopyDone(sub)
	}
	c.mig.SubDone(sub.SubIndex)
	st.completed = append(st.completed, sub.SubIndex)
	if st.subsLeft > 0 {
		return
	}
	if c.inj != nil && c.inj.Fault(fault.PointBulk) {
		switch c.ladder(fault.PointBulk, 0, false, c.stepAttempts, fault.RolledBack, done) {
		case rungRetry:
			c.stepAttempts++
			subs, err := c.mig.RestartStep()
			if err != nil {
				c.fail(err)
				c.step = nil
				return
			}
			c.issueStep(&stepState{subsLeft: len(subs)}, subs, done)
			return
		case rungExhausted:
			c.abortSwap(c.step, done)
			return
		}
	}
	next, swapDone, err := c.landStep(c.stepBegin, done, c.swapBegin)
	if err != nil {
		c.fail(err)
		c.step = nil
		return
	}
	c.stepBegin = done
	if swapDone {
		c.step = nil
		c.serviceQuiescent(done)
		return
	}
	c.issueStep(&stepState{subsLeft: len(next)}, next, done)
}

// runStalledSwap executes an N-design swap synchronously: all copy traffic
// is drained immediately and program execution resumes only after the last
// byte moved (the paper: "it will halt the execution"). Fault probes run
// inline: a faulted copy re-reserves its buses after the backoff, a faulted
// step completion re-runs the step's copies, and retry exhaustion rolls the
// swap back synchronously.
func (c *Controller) runStalledSwap(subs []core.SubCopy, now int64) error {
	start := max(now, c.stallUntil)
	swapStart := start
	c.stepAttempts = 0
	for {
		stepBegin := start
		var completed []int
		for _, sc := range subs {
			// A step's copies all start together, each on its own pages'
			// channels.
			end, landed := c.runCopy(sc, stepBegin+c.cfg.CopyHop, true, fault.RolledBack)
			if !landed {
				return c.stalledRollback(completed, end)
			}
			if c.onCopyDone != nil {
				c.onCopyDone(sc)
			}
			completed = append(completed, sc.SubIndex)
			start = max(start, end)
		}
		if c.inj != nil && c.inj.Fault(fault.PointBulk) {
			switch c.ladder(fault.PointBulk, 0, false, c.stepAttempts, fault.RolledBack, start) {
			case rungRetry:
				c.stepAttempts++
				continue // re-run the same step's copies
			case rungExhausted:
				return c.stalledRollback(completed, start)
			}
		}
		next, done, err := c.landStep(stepBegin, start, swapStart)
		if err != nil {
			return err
		}
		if done || c.firstErr != nil {
			break
		}
		subs = next
	}
	if err := c.firstErr; err != nil {
		return err
	}
	if stalled := start - now; stalled > 0 {
		c.inst.stallCycles.Add(uint64(stalled))
		c.inst.spans.Span(obs.LaneMigrator, obs.SpanStall, now, start, uint64(stalled), 0, 0)
	}
	c.stallUntil = start
	c.serviceQuiescent(start)
	return c.firstErr
}

// runCopy runs one sub-block copy synchronously from cycle start: the read
// leg reserves the source page's channel, then the write leg the
// destination's. It moves every N-design swap and undo copy and every
// retirement copy. A probed copy is fault-probed once, after its write
// leg; unless the ladder absorbs the fault or gives up on the copy
// (booking exhausted), the whole copy runs again after its backoff. It
// returns the cycle the last write leg finished and whether the copy
// landed.
func (c *Controller) runCopy(sc core.SubCopy, start int64, probe bool, exhausted fault.Disposition) (end int64, landed bool) {
	srcOn, dstOn := c.regionOfMachine(sc.Src), c.regionOfMachine(sc.Dst)
	rd := c.subDuration(srcOn, sc.Bytes, sc.Exchange)
	wd := c.subDuration(dstOn, sc.Bytes, sc.Exchange)
	for attempts := 0; ; attempts++ {
		readDone := c.reserve(srcOn, sc.Src, start, rd)
		end = c.reserve(dstOn, sc.Dst, readDone, wd)
		if probe && c.inj.Fault(fault.PointCopy) {
			switch c.ladder(fault.PointCopy, sc.Dst, dstOn, attempts, exhausted, end) {
			case rungAbsorbed:
				// The copy counts as delivered.
			case rungExhausted:
				return end, false
			default:
				start = end + c.retry.Delay(attempts+1)
				c.inst.spans.Span(obs.LaneFault, obs.SpanBackoff, end, start, uint64(fault.PointCopy), uint64(attempts+1), 0)
				continue
			}
		}
		c.landCopy(sc, false, start, readDone)
		c.landCopy(sc, true, readDone, end)
		return end, true
	}
}

// reserve books dur bus cycles for a synchronous copy leg touching the
// given machine address, on the channel its macro page belongs to. It
// books through the region's scheduler, which first settles the background
// progress the channel is owed.
func (c *Controller) reserve(on bool, machine uint64, at, dur int64) int64 {
	rg := c.side(on)
	return rg.sch.ReserveBus(c.pageChannel(rg, machine), at, dur)
}

// landCopy books one landed copy leg, background or synchronous, of a
// forward, undo or retirement copy. A read leg leaves its copy-read span.
// A write leg lands the sub-block at its destination: its copy-write span,
// the memctrl.copy.* counters and the migration energy (Section IV-D
// charges migration traffic like any other traffic).
func (c *Controller) landCopy(sc core.SubCopy, write bool, begin, end int64) {
	pageSize := c.cfg.Geometry.MacroPageSize
	srcOn, dstOn := c.regionOfMachine(sc.Src), c.regionOfMachine(sc.Dst)
	if !write {
		c.inst.spans.Span(c.side(srcOn).lane, obs.SpanCopyRead, begin, end, sc.Src/pageSize, uint64(sc.SubIndex), sc.Bytes)
		return
	}
	c.inst.spans.Span(c.side(dstOn).lane, obs.SpanCopyWrite, begin, end, sc.Dst/pageSize, uint64(sc.SubIndex), sc.Bytes)
	c.inst.copySubs.Inc()
	c.inst.copyBytes.Add(sc.Bytes)
	if c.cfg.Power != nil {
		c.cfg.Power.Copy(srcOn, dstOn, sc.Bytes, sc.Exchange)
	}
}

// landStep books one finished swap step, background or synchronous: the
// migrator's table update, the step span, the audit and, when it was the
// swap's last step, the swap span. It returns the next step's copies.
func (c *Controller) landStep(begin, end, swapBegin int64) (next []core.SubCopy, done bool, err error) {
	mru, _, stepIdx, _, _ := c.mig.CurrentPlan()
	if next, done, err = c.mig.StepDone(); err != nil {
		return nil, false, err
	}
	c.inst.swapSteps.Inc()
	c.inst.spans.Span(obs.LaneMigrator, obs.SpanStep, begin, end, mru, uint64(stepIdx), 0)
	if done {
		c.inst.swapDone.Inc()
		c.inst.spans.Span(obs.LaneMigrator, obs.SpanSwap, swapBegin, end, c.swapMRU, c.swapVictim, uint64(stepIdx+1))
	} else {
		c.stepAttempts = 0
	}
	c.audit(done)
	return next, done, nil
}

// Flush drains both regions and returns the final cycle. Draining one
// region can spawn follow-on copy legs in the other (read -> write -> next
// step), so the flush iterates until both are empty.
func (c *Controller) Flush() int64 {
	c.now = int64(1) << 62
	var last int64
	for i := 0; i < 1<<20; i++ {
		for k := range c.regions {
			last = max(last, c.regions[k].sch.Flush())
		}
		pending := 0
		for k := range c.regions {
			pending += c.regions[k].sch.QueueLen() + c.regions[k].sch.BulkBacklog()
		}
		if pending == 0 && c.step == nil {
			break
		}
	}
	if c.inj != nil {
		// Fault responses deferred to a quiescent point (slot retirements,
		// a pending degrade) run now; retirement evacuation copies extend
		// the bus schedules past the drained horizon.
		c.serviceQuiescent(last)
		for k := range c.regions {
			rg := &c.regions[k]
			for ch := 0; ch < rg.channels; ch++ {
				last = max(last, rg.dev.BusFree(ch))
			}
		}
	}
	// The drained controller must be at a quiescent point: no swap in
	// flight and the translation table fully consistent.
	if c.mig != nil && c.mig.SwapInFlight() && c.firstErr == nil {
		c.fail(fmt.Errorf("memctrl: flush finished with a swap still in flight"))
	}
	c.audit(true)
	c.checkFaultLedger()
	// The flush-time sample closes the series: its cumulative counters equal
	// the final metrics snapshot, so the two can be reconciled.
	c.sampleSeries(last, true)
	return last
}

// PublishObs exports snapshot-time gauges — DRAM device statistics,
// migration engine statistics, and translation-table P-bit transition
// counts — into the configured registry. Call it once after Flush, before
// taking the registry snapshot; counters and histograms recorded on the
// hot path are already in the registry.
func (c *Controller) PublishObs() {
	reg := c.cfg.Obs
	if reg == nil {
		return
	}
	for i := range c.regions {
		rg, tag := &c.regions[i], Region(i).tag()
		rg.dev.PublishObs(reg, "dram."+tag)
		served, bulk, _ := rg.sch.Stats()
		reg.Gauge("sched." + tag + ".served").Set(int64(served))
		reg.Gauge("sched." + tag + ".bulk_served").Set(int64(bulk))
	}
	if rep := c.FaultReport(); rep != nil {
		reg.Gauge("fault.injected").Set(int64(rep.Injected))
		reg.Gauge("fault.device").Set(int64(rep.DeviceFaults))
		reg.Gauge("fault.copy").Set(int64(rep.CopyFaults))
		reg.Gauge("fault.bulk").Set(int64(rep.BulkFaults))
		reg.Gauge("fault.retried").Set(int64(rep.Retried))
		reg.Gauge("fault.rolled_back").Set(int64(rep.RolledBack))
		reg.Gauge("fault.retired").Set(int64(rep.Retired))
		reg.Gauge("fault.degraded").Set(int64(rep.Degraded))
		reg.Gauge("fault.swaps_rolled_back").Set(int64(rep.SwapsRolledBack))
		reg.Gauge("fault.slots_retired").Set(int64(rep.SlotsRetired))
		degraded := int64(0)
		if rep.DegradedMode {
			degraded = 1
		}
		reg.Gauge("fault.degraded_mode").Set(degraded)
	}
	if c.mig == nil {
		return
	}
	st := c.mig.Stats()
	reg.Gauge("mig.epochs").Set(int64(st.Epochs))
	reg.Gauge("mig.swaps_started").Set(int64(st.SwapsStarted))
	reg.Gauge("mig.swaps_completed").Set(int64(st.SwapsCompleted))
	reg.Gauge("mig.triggers_blocked").Set(int64(st.TriggersBlocked))
	reg.Gauge("mig.triggers_cold").Set(int64(st.TriggersCold))
	reg.Gauge("mig.pages_copied").Set(int64(st.PagesCopied))
	reg.Gauge("mig.bytes_copied").Set(int64(st.BytesCopied))
	reg.Gauge("mig.live_early_hits").Set(int64(st.LiveEarlyHits))
	sets, clears := c.mig.Table().PendingTransitions()
	reg.Gauge("table.pending_sets").Set(int64(sets))
	reg.Gauge("table.pending_clears").Set(int64(clears))
	if c.aud != nil {
		steps, quiescents := c.aud.Audits()
		reg.Gauge("check.audits.step").Set(int64(steps))
		reg.Gauge("check.audits.quiescent").Set(int64(quiescents))
	}
}

// Report summarizes controller-level statistics.
type Report struct {
	All, On, Off stats.LatencyStat

	// DRAMAll/DRAMOn/DRAMOff measure the DRAM access latency alone
	// (queuing + device service), the metric of Figs. 11-15 and Table IV.
	DRAMAll, DRAMOn, DRAMOff stats.LatencyStat

	P95          int64
	MeanCoreLat  float64
	OnShare      float64 // fraction of accesses served on-package
	OnQueueMean  float64
	OffQueueMean float64
	Migration    core.Stats

	// Faults is the fault-handling ledger; nil when injection is off, so
	// fault-free reports stay byte-identical (omitted from JSON).
	Faults *fault.Report `json:",omitempty"`

	// Scheme summarizes the cache-scheme engine; nil under the default
	// migration scheme so pre-scheme reports stay byte-identical.
	Scheme *SchemeReport `json:",omitempty"`
}

// SchemeReport is the cache-scheme section of a Report.
type SchemeReport struct {
	Name string
	scheme.Stats
	HitRate float64
}

// Devices exposes the two DRAM models for inspection.
func (c *Controller) Devices() (on, off *dram.Device) {
	return c.regions[OnPackage].dev, c.regions[OffPackage].dev
}

// ResetStats clears the latency and power accounting, keeping all
// simulation state (caches, table, bank states). Use it after a warmup
// phase so reported numbers reflect steady state.
func (c *Controller) ResetStats() {
	for i := range c.regions {
		c.regions[i].lat = stats.LatencyStat{}
		c.regions[i].dram = stats.LatencyStat{}
	}
	c.allLat = stats.LatencyStat{}
	c.hist = stats.Histogram{}
	c.dramAll = stats.LatencyStat{}
	c.coreLatSum = 0
	c.nDone = 0
	c.queueSum = 0
	if c.cfg.Power != nil {
		c.cfg.Power.Reset()
	}
}
