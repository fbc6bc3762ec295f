// Package sim is the trace-driven heterogeneous-main-memory simulator of
// Section IV: it feeds a trace source through a heterogeneity-aware memory
// controller and reports average memory access latency, region routing,
// migration activity, and power.
//
// Like the paper's evaluation it is an open-loop trace simulation: record
// timestamps come from the trace; memory latency does not throttle the
// request stream. That matches "trace-based simulation makes it practical
// to process trillions of main memory accesses".
//
// One run loop serves every channel count: it reads the trace in batches
// cut at the run's semantic boundaries (see batchBoundary) and drives a
// single channel inline on the caller's goroutine, or more channels on one
// worker goroutine each under a cycle barrier (see shardWorkers).
package sim

import (
	"context"
	"errors"
	"fmt"
	"io"

	"heteromem/internal/config"
	"heteromem/internal/core"
	"heteromem/internal/fault"
	"heteromem/internal/memctrl"
	"heteromem/internal/obs"
	"heteromem/internal/power"
	"heteromem/internal/sched"
	"heteromem/internal/scheme"
	"heteromem/internal/trace"
)

// Config describes one simulation run.
type Config struct {
	Geometry  config.MemoryGeometry
	Latencies config.Latencies
	OffTiming config.DDR3Timing
	OnTiming  config.DDR3Timing

	// Migration enables dynamic migration; nil simulates the static
	// mapping (the "w/o migration" baseline rows of Table IV).
	Migration *core.Options

	// Scheme selects the on-package capacity policy (internal/scheme). The
	// zero value is the paper's migration scheme and keeps configs,
	// digests, and results byte-identical to pre-scheme builds.
	Scheme scheme.Spec

	// OSAssisted charges the OS-epoch overhead; the experiment drivers set
	// it for macro pages < 1 MB per the paper's feasibility split.
	OSAssisted bool

	// Channels shards the controller: the physical space stripes across
	// this many per-channel controllers behind a hub (internal/memctrl),
	// and the run executes deterministically in parallel — one goroutine
	// per channel under a cycle barrier (see shardWorkers). 0 and 1 both
	// mean the classic single controller; values > 1 must be powers of two
	// and divide both capacities into whole-stripe shards.
	Channels int

	// InterleaveBytes is the channel-striping granularity (0 = the macro
	// page size). Must be a power-of-two multiple of the macro page size.
	InterleaveBytes uint64

	// HopLatency is the cross-channel interconnect hop in cycles charged
	// on swap copy legs of a sharded run (0 = memctrl.DefaultHopLatency).
	HopLatency int64

	// Sched tunes the per-region transaction schedulers (ablations).
	Sched sched.Config

	// MeterPower attaches a power meter using the paper's constants.
	MeterPower bool

	// MaxRecords bounds the run (0 = whole trace).
	MaxRecords uint64

	// Warmup discards statistics for the first Warmup records so reported
	// numbers reflect the steady state after the hot set has migrated.
	Warmup uint64

	// Metrics enables the observability registry: counters, gauges, and
	// latency histograms collected across the whole pipeline and returned
	// in Result.Metrics. Off by default; the disabled cost is a nil check
	// per record.
	Metrics bool

	// EventTrace, when positive, keeps a ring buffer of the last N
	// structured pipeline events (epoch ticks, swap steps, P-bit stalls,
	// copy completions, audits) and returns them in Result.Events.
	// Implies Metrics.
	EventTrace int

	// SpanTrace, when positive, records up to N cycle-domain spans (swap
	// lifecycles, copy legs, stalls, rollbacks, fault ladders) into
	// Result.Spans, exportable as Chrome trace-event JSON. Implies Metrics.
	SpanTrace int

	// EpochSeries, when positive, samples the cumulative pipeline counters
	// at every monitoring-epoch boundary (plus once at flush) into a ring of
	// the last N samples, returned in Result.Series. Implies Metrics.
	EpochSeries int

	// Audit attaches the invariant auditor to the migration pipeline: the
	// translation table is verified after every swap step and at every
	// quiescent point, and any violation fails the run with a diagnostic
	// error.
	Audit bool

	// Fault configures deterministic fault injection into the memory
	// pipeline (internal/fault): DRAM bursts, migration copy legs, and step
	// completions can be failed by rate or schedule, and the controller
	// degrades gracefully (retry, rollback, slot retirement, frozen
	// migration) instead of erroring out. The zero value disables injection
	// and leaves results byte-identical to a fault-free build.
	Fault fault.Config

	// CheckpointEvery, when positive, serializes the complete run state
	// every that many records and hands it to CheckpointSink. A run resumed
	// from any such checkpoint produces a Result identical to the
	// uninterrupted run. Incompatible with the observability collectors
	// (Metrics, EventTrace, SpanTrace, EpochSeries).
	CheckpointEvery uint64

	// CheckpointSink receives each checkpoint (the encoded snapshot and the
	// number of records completed). A sink error aborts the run.
	CheckpointSink func(data []byte, records uint64) error

	// Resume restores the run from a checkpoint before processing records.
	// The configuration must match the one the checkpoint was taken under
	// (ErrConfigMismatch otherwise), and the trace source must be the same
	// source the checkpointed run used, freshly constructed.
	Resume []byte
}

// Default fills in the Table II/III defaults for anything left zero.
func Default() Config {
	return Config{
		Geometry:  config.TraceGeometry(),
		Latencies: config.TableIILatencies(),
		OffTiming: config.OffPackageTiming(),
		OnTiming:  config.OnPackageTiming(),
	}
}

// Result is the outcome of one run.
type Result struct {
	Report    memctrl.Report
	Records   uint64
	LastCycle int64

	// MeanLatency is the average end-to-end memory access latency in CPU
	// cycles (translation + controller + wires + DRAM access).
	MeanLatency float64

	// MeanDRAMLatency is the average DRAM access latency (queuing + device
	// service) — the quantity the paper's trace-based figures (Figs. 11-15,
	// Table IV) report, measured at the memory controller's DRAM interface.
	MeanDRAMLatency float64

	// Power results (zero when not metered).
	EnergyPJ        float64
	NormalizedPower float64

	// Metrics is the observability snapshot (nil unless Config.Metrics or
	// Config.EventTrace was set).
	Metrics *obs.Snapshot `json:",omitempty"`

	// Events is the tail of the structured event trace, oldest first
	// (nil unless Config.EventTrace was set). EventsTotal counts every
	// event emitted over the run, including those the ring dropped;
	// EventsDropped is how many the ring overwrote (non-zero means the
	// trace is truncated at the front — no silent caps).
	Events        []obs.Event `json:",omitempty"`
	EventsTotal   uint64      `json:",omitempty"`
	EventsDropped uint64      `json:",omitempty"`

	// Spans is the cycle-domain span trace, earliest-first (nil unless
	// Config.SpanTrace was set); SpansDropped counts spans discarded once
	// the buffer filled.
	Spans        []obs.Span `json:",omitempty"`
	SpansDropped uint64     `json:",omitempty"`

	// Series is the per-epoch time series, oldest-first, ending with the
	// flush-time sample (nil unless Config.EpochSeries was set);
	// SeriesDropped counts samples the ring overwrote.
	Series        []obs.EpochSample `json:",omitempty"`
	SeriesDropped uint64            `json:",omitempty"`

	// Faults is the fault-handling ledger: injected fault counts per point
	// and the disposition of each (retried, rolled back, retired,
	// degraded). Nil unless Config.Fault enabled injection.
	Faults *fault.Report `json:",omitempty"`
}

// cancelStride is how many records pass between cooperative cancellation
// checks in RunContext: frequent enough that a signal aborts a run within
// microseconds of wall time, sparse enough that the per-record hot path
// never touches the context.
const cancelStride = 4096

// batchBoundary returns how many records the run loop may read in one
// batch starting at record n without crossing a semantic boundary: the
// next cancel-poll stride, the warmup edge, the next checkpoint edge, and
// MaxRecords. Splitting batches there keeps the batched loop's boundary
// actions at exactly the record counts of the old per-record loop. Always
// at least 1 when the loop condition admitted another record.
func batchBoundary(cfg *Config, n uint64) uint64 {
	want := cancelStride - n%cancelStride
	if cfg.MaxRecords > 0 {
		if rem := cfg.MaxRecords - n; rem < want {
			want = rem
		}
	}
	if cfg.Warmup > n {
		if rem := cfg.Warmup - n; rem < want {
			want = rem
		}
	}
	if cfg.CheckpointEvery > 0 && cfg.CheckpointSink != nil {
		if rem := cfg.CheckpointEvery - n%cfg.CheckpointEvery; rem < want {
			want = rem
		}
	}
	return want
}

// Run simulates src through a controller built from cfg. With
// cfg.Channels > 1 the run shards across per-channel controllers and
// executes deterministically in parallel; one channel runs inline. Both go
// through the same loop and the same hub.
func Run(src trace.Source, cfg Config) (Result, error) {
	return RunContext(context.Background(), src, cfg)
}

// RunContext is Run with cooperative cancellation: ctx is polled every
// cancelStride records and at every checkpoint boundary, and a cancelled
// run returns ctx.Err() without flushing. Simulated results are unaffected
// by when — or whether — the context machinery observes the run, so Run
// and RunContext with an inert context are byte-identical. Every return
// path waits for the shard workers of a sharded run to exit.
func RunContext(ctx context.Context, src trace.Source, cfg Config) (Result, error) {
	return simulate(ctx, src, cfg, 0)
}

// simulate is RunContext with the barrier window of a sharded run as a
// parameter, in trace cycles per barrier epoch (0 = defaultBarrierWindow or
// the hop latency, whichever is larger). Results never depend on it, so
// only tests choose it.
func simulate(ctx context.Context, src trace.Source, cfg Config, window int64) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.CheckpointEvery > 0 || cfg.Resume != nil {
		if err := checkpointIncompatible(cfg); err != nil {
			return Result{}, err
		}
	}
	n := max(cfg.Channels, 1)
	observed := cfg.Metrics || cfg.EventTrace > 0 || cfg.SpanTrace > 0 || cfg.EpochSeries > 0
	regs := make([]*obs.Registry, n)
	meters := make([]*power.Meter, n)
	for i := 0; i < n; i++ {
		if observed {
			// Each Enable is a no-op for a non-positive capacity.
			regs[i] = obs.NewRegistry()
			regs[i].EnableEvents(cfg.EventTrace)
			regs[i].EnableSpans(cfg.SpanTrace)
			regs[i].EnableSeries(cfg.EpochSeries)
		}
		if cfg.MeterPower {
			meters[i] = power.NewMeter(config.PaperPower())
		}
	}
	mcfg := memctrl.Config{
		Geometry:   cfg.Geometry,
		Latencies:  cfg.Latencies,
		OffTiming:  cfg.OffTiming,
		OnTiming:   cfg.OnTiming,
		Migration:  cfg.Migration,
		Scheme:     cfg.Scheme,
		OSAssisted: cfg.OSAssisted,
		Sched:      cfg.Sched,
		Audit:      cfg.Audit,
		Fault:      cfg.Fault,
	}
	hubCfg := memctrl.HubConfig{Channels: n, Interleave: cfg.InterleaveBytes, HopLatency: cfg.HopLatency}
	if n == 1 {
		// A single-channel hub is a bare controller and takes its
		// instruments from the controller config.
		mcfg.Obs, mcfg.Power = regs[0], meters[0]
	} else {
		hubCfg.ShardObs, hubCfg.ShardPower = regs, meters
	}
	hub, err := memctrl.NewHub(mcfg, hubCfg, nil)
	if err != nil {
		return Result{}, err
	}

	var done uint64
	if cfg.Resume != nil {
		if done, err = restoreCheckpoint(cfg, src, hub, cfg.Resume); err != nil {
			return Result{}, err
		}
	}
	inline := hub.Shard(0)
	var workers *shardWorkers
	if n > 1 {
		workers = startShardWorkers(hub, window)
		defer workers.stop()
	}
	// Records stream through in batches sized to the next semantic boundary
	// (cancel stride, warmup edge, checkpoint edge, MaxRecords), so every
	// per-record check hoists to a batch edge while firing at exactly the
	// record counts a per-record loop would — semantics are bit-identical.
	var recs trace.Batch
	for cfg.MaxRecords == 0 || done < cfg.MaxRecords {
		if done%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("sim: cancelled at record %d: %w", done, err)
			}
		}
		recs.Resize(int(batchBoundary(&cfg, done)))
		k, rerr := trace.ReadBatch(src, &recs)
		if workers == nil {
			for j := 0; j < k; j++ {
				if err := inline.Access(recs.Addr[j], recs.Write[j], int64(recs.Cycle[j])); err != nil {
					return Result{}, fmt.Errorf("sim: access %d: %w", done+uint64(j), err)
				}
			}
		} else if err := workers.feed(&recs, k); err != nil {
			return Result{}, err
		}
		done += uint64(k)
		if cfg.Warmup > 0 && done == cfg.Warmup && k > 0 {
			// Drain so the reset lands after exactly Warmup records on
			// every shard.
			if err := workers.drain(); err != nil {
				return Result{}, err
			}
			hub.ResetStats()
		}
		if cfg.CheckpointEvery > 0 && cfg.CheckpointSink != nil && k > 0 && done%cfg.CheckpointEvery == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("sim: cancelled at record %d: %w", done, err)
			}
			if err := workers.drain(); err != nil {
				return Result{}, err
			}
			data, err := takeCheckpoint(cfg, src, hub, done)
			if err != nil {
				return Result{}, fmt.Errorf("sim: checkpoint at record %d: %w", done, err)
			}
			if err := cfg.CheckpointSink(data, done); err != nil {
				return Result{}, fmt.Errorf("sim: checkpoint sink at record %d: %w", done, err)
			}
		}
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			return Result{}, fmt.Errorf("sim: reading trace record %d: %w", done, rerr)
		}
		if k == 0 {
			return Result{}, fmt.Errorf("sim: reading trace record %d: %w", done, io.ErrNoProgress)
		}
	}
	if err := workers.drain(); err != nil {
		return Result{}, err
	}
	last := hub.Flush()
	if err := hub.Err(); err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}

	// Per-channel instruments fold in fixed channel order, so the result is
	// identical regardless of which shard's goroutine finished first. For
	// one channel the fold is an exact copy: merging one snapshot recomputes
	// the same means, and adding one meter to a fresh one adds 0 + x.
	var res Result
	if observed {
		hub.PublishObs()
		snaps := make([]*obs.Snapshot, n)
		for i, reg := range regs {
			snaps[i] = reg.Snapshot()
		}
		res.Metrics = obs.MergeSnapshots(snaps...)
		for _, reg := range regs {
			if ring := reg.Events(); ring != nil {
				res.Events = append(res.Events, ring.Events()...)
				res.EventsTotal += ring.Total()
				res.EventsDropped += ring.Dropped()
			}
			if tr := reg.Spans(); tr != nil {
				res.Spans = append(res.Spans, tr.Spans()...)
				res.SpansDropped += tr.Dropped()
			}
			if ser := reg.Series(); ser != nil {
				res.Series = append(res.Series, ser.Samples()...)
				res.SeriesDropped += ser.Dropped()
			}
		}
	}
	res.Report = hub.Report()
	res.Faults = res.Report.Faults
	res.Records = done
	res.LastCycle = last
	res.MeanLatency = res.Report.All.Mean()
	res.MeanDRAMLatency = res.Report.DRAMAll.Mean()
	if cfg.MeterPower {
		total := power.NewMeter(config.PaperPower())
		for _, m := range meters {
			total.Merge(m)
		}
		res.EnergyPJ = total.EnergyPJ()
		res.NormalizedPower = total.Normalized()
	}
	return res, nil
}

// Effectiveness computes the paper's η metric (Section IV-B):
//
//	η = (Lat_noMig − Lat_mig) / (Lat_noMig − DRAMCoreLat) × 100%
//
// which "approximately reflects how many memory accesses are routed to the
// on-package memory region".
func Effectiveness(latNoMig, latMig, coreLat float64) float64 {
	denom := latNoMig - coreLat
	if denom <= 0 {
		return 0
	}
	return (latNoMig - latMig) / denom * 100
}
