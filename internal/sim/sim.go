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
// single channel inline on the caller's goroutine, or hands each batch to
// one worker goroutine per channel, decoding the next batch while the
// workers simulate this one (see shardWorkers).
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
	// per channel, each simulating its own channel's records of every
	// trace batch (see shardWorkers). 0 and 1 both mean the classic single
	// controller; memctrl.Sharding is the rule for every layout.
	Channels int

	// InterleaveBytes is the channel-striping granularity (0 = the macro
	// page size).
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
	// (Metrics, SpanTrace, EpochSeries).
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

// Validate applies every rule of a run configuration that needs no trace:
// the geometry, the scheme's rule for migration and audit
// (scheme.Spec.CheckMigration), a known design (N, N-1 or Live) and a
// positive swap interval under migration,
// the channel layout (memctrl.Sharding), the fault config, and that a
// checkpointed or resumed run collects no observability (its registries
// and rings are not serialized). RunContext calls it first; every entry
// point that builds a config calls it to reject a bad one before anything
// runs.
func (cfg *Config) Validate() error {
	if err := cfg.Geometry.Validate(); err != nil {
		return err
	}
	if err := cfg.Scheme.Validate(); err != nil {
		return err
	}
	if err := cfg.Scheme.CheckMigration(cfg.Migration != nil, cfg.Audit); err != nil {
		return err
	}
	if cfg.Migration != nil {
		if err := cfg.Migration.Design.Validate(); err != nil {
			return err
		}
		if cfg.Migration.SwapInterval == 0 {
			return fmt.Errorf("sim: migration needs a swap interval above zero")
		}
	}
	if _, err := memctrl.Sharding(cfg.Geometry, cfg.hubConfig()); err != nil {
		return err
	}
	if err := cfg.Fault.Validate(); err != nil {
		return err
	}
	if cfg.CheckpointEvery > 0 || cfg.Resume != nil {
		switch {
		case cfg.Metrics:
			return fmt.Errorf("sim: checkpointing is incompatible with Metrics collection")
		case cfg.SpanTrace > 0:
			return fmt.Errorf("sim: checkpointing is incompatible with SpanTrace collection")
		case cfg.EpochSeries > 0:
			return fmt.Errorf("sim: checkpointing is incompatible with EpochSeries collection")
		}
	}
	return nil
}

// observed reports whether the run collects observability: metrics, spans
// or the epoch series.
func (cfg *Config) observed() bool {
	return cfg.Metrics || cfg.SpanTrace > 0 || cfg.EpochSeries > 0
}

// hubConfig is the run's channel layout as the hub takes it.
func (cfg *Config) hubConfig() memctrl.HubConfig {
	return memctrl.HubConfig{Channels: cfg.Channels, Interleave: cfg.InterleaveBytes, HopLatency: cfg.HopLatency}
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

	// Metrics is the observability snapshot (nil unless Config.Metrics,
	// Config.SpanTrace, or Config.EpochSeries was set).
	Metrics *obs.Snapshot `json:",omitempty"`

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

// newHub builds the run's memory pipeline: one controller per channel
// behind a hub, with per-channel observability registries when the run
// collects metrics and power meters when it meters power.
func newHub(cfg Config) (*memctrl.Hub, []*obs.Registry, []*power.Meter, error) {
	n := max(cfg.Channels, 1)
	regs := make([]*obs.Registry, n)
	meters := make([]*power.Meter, n)
	for i := 0; i < n; i++ {
		if cfg.observed() {
			// Each Enable is a no-op for a non-positive capacity.
			regs[i] = obs.NewRegistry()
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
	hubCfg := cfg.hubConfig()
	hubCfg.ShardObs, hubCfg.ShardPower = regs, meters
	hub, err := memctrl.NewHub(mcfg, hubCfg, nil)
	return hub, regs, meters, err
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
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	hub, regs, meters, err := newHub(cfg)
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
	// Records stream through in batches sized to the next semantic boundary
	// (cancel stride, warmup edge, checkpoint edge, MaxRecords), so every
	// per-record check hoists to a batch edge while firing at exactly the
	// record counts a per-record loop would — semantics are bit-identical.
	// A sharded run alternates two batches, each sized once for the largest
	// cut: the loop decodes into one while the workers simulate the other.
	var pool [2]trace.Batch
	cur := 0 // the pooled batch the loop decodes into next
	var workers *shardWorkers
	if hub.Channels() > 1 {
		workers = startShardWorkers(hub)
		defer workers.stop()
		for i := range pool {
			pool[i].Resize(cancelStride)
		}
	}
	for cfg.MaxRecords == 0 || done < cfg.MaxRecords {
		if done%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("sim: cancelled at record %d: %w", done, err)
			}
		}
		recs := &pool[cur]
		recs.Resize(int(batchBoundary(&cfg, done)))
		k, rerr := src.NextBatch(recs)
		if workers == nil {
			for j := 0; j < k; j++ {
				if err := inline.Access(recs.Addr[j], recs.Write[j], int64(recs.Cycle[j])); err != nil {
					return Result{}, fmt.Errorf("sim: access %d: %w", done+uint64(j), err)
				}
			}
		} else {
			if err := workers.handover(recs, k); err != nil {
				return Result{}, err
			}
			cur ^= 1
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
	if cfg.observed() {
		hub.PublishObs()
		snaps := make([]*obs.Snapshot, len(regs))
		for i, reg := range regs {
			snaps[i] = reg.Snapshot()
		}
		res.Metrics = obs.MergeSnapshots(snaps...)
		for _, reg := range regs {
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
