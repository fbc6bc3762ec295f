// Package heteromem is a simulation library for heterogeneous main memory
// with on-chip memory controller support, reproducing Dong, Xie,
// Muralimanohar, and Jouppi, "Simple but Effective Heterogeneous Main Memory
// with On-Chip Memory Controller Support" (SC 2010).
//
// The simulated system couples fast on-package DRAM (SiP/3D, many banks,
// wide interposer bus) with commodity off-package DIMMs into a single main
// memory space. An extra physical-to-machine address-translation layer in
// the on-chip memory controller migrates macro pages between the regions
// with a hottest-coldest swapping policy, using one of three designs:
//
//   - DesignN: basic; page exchanges stall execution.
//   - DesignN1: one slot is sacrificed so swaps run in the background,
//     with a pending bit keeping every page reachable throughout.
//   - DesignLive: N-1 plus sub-block live migration (critical-data-first).
//
// Quick start:
//
//	sys, err := heteromem.New(heteromem.Config{
//		Migration: heteromem.Migration{Design: heteromem.DesignLive, SwapInterval: 1000},
//	})
//	res, err := sys.RunWorkload("pgbench", 1, 1_000_000)
//	fmt.Println(res.MeanDRAMLatency)
//
// The internal packages implement the substrates: DRAM bank/bus timing
// (internal/dram), FR-FCFS scheduling with background copy traffic
// (internal/sched), the translation table and migration engine
// (internal/core), the heterogeneity-aware controller (internal/memctrl),
// synthetic workload models (internal/workload), the Section II cache/IPC
// models (internal/cache, internal/cpu), and the paper's experiment
// drivers (internal/experiments), which are runnable via cmd/hmsim.
package heteromem

import (
	"context"
	"fmt"
	"io"

	"heteromem/internal/addr"
	"heteromem/internal/config"
	"heteromem/internal/core"
	"heteromem/internal/fault"
	"heteromem/internal/obs"
	"heteromem/internal/scheme"
	"heteromem/internal/sim"
	"heteromem/internal/trace"
	"heteromem/internal/workload"
)

// Size helpers re-exported for configuration literals.
const (
	KiB = addr.KiB
	MiB = addr.MiB
	GiB = addr.GiB
)

// Design selects the migration algorithm.
type Design = core.Design

// Migration designs, re-exported from the core package.
const (
	DesignN    = core.DesignN
	DesignN1   = core.DesignN1
	DesignLive = core.DesignLive
)

// Migration configures dynamic data migration. The zero value disables
// migration (static mapping: lowest addresses on-package).
type Migration struct {
	Enabled      bool
	Design       Design
	SwapInterval uint64 // memory accesses per monitoring epoch; above zero when Enabled
}

// Config describes a heterogeneous memory system. Zero values select the
// paper's Table III defaults (4 GB total, 512 MB on-package, 4 MB macro
// pages, 4 KB sub-blocks). New rejects a configuration no run could take,
// by the same rules hmsim and the sweep cells apply.
type Config struct {
	TotalCapacity     uint64
	OnPackageCapacity uint64
	MacroPageSize     uint64
	SubBlockSize      uint64

	Migration Migration

	// Scheme selects the on-package capacity policy by name: "" or
	// "migrate" (the paper's designs, the default), "alloy", "alloy-pred",
	// "cachemode", "memcache[:PCT]" or "memcache-pred[:PCT]". The cache
	// schemes ("alloy", "alloy-pred", "cachemode") manage the whole
	// on-package capacity as a cache and reject Migration.Enabled and
	// Audit; memcache requires Migration.Enabled and migrates only its
	// memory share.
	Scheme string

	// Channels shards the memory system across this many per-channel
	// controllers (a power of two; 0 and 1 both mean a single controller).
	// The address space stripes across channels at macro-page granularity,
	// and every capacity must divide into whole stripes. The simulation
	// executes deterministically in parallel, one goroutine per channel,
	// and cross-channel swap copy legs pay a fixed interconnect hop.
	Channels int

	// MeterPower enables the Section IV-D energy accounting.
	MeterPower bool

	// Warmup discards statistics for the first Warmup records.
	Warmup uint64

	// Metrics enables the observability layer: pipeline counters, gauges,
	// and latency histograms are collected and returned in Result.Metrics.
	Metrics bool

	// SpanTrace, when positive, records up to N cycle-domain begin/end
	// spans (swap lifecycles, copy legs, N-design stalls, fault ladders)
	// into Result.Spans; export them with WriteChromeTrace. Implies Metrics.
	SpanTrace int

	// EpochSeries, when positive, samples the cumulative pipeline counters
	// at every monitoring-epoch boundary (plus once at flush) into
	// Result.Series, keeping the last N samples. Implies Metrics.
	EpochSeries int

	// Audit verifies the translation-table invariants after every swap step
	// and at every quiescent point; any violation fails the run with a
	// diagnostic error.
	Audit bool

	// Fault enables deterministic fault injection with graceful
	// degradation; see FaultConfig. The zero value is a no-op.
	Fault FaultConfig
}

// FaultConfig configures deterministic fault injection: DRAM device
// bursts, migration copy legs, and bulk-step completions can be failed by
// seeded probability (DeviceRate/CopyRate/BulkRate) or by an explicit
// schedule ("device@100,copy@5-8,bulk@3x2"). The controller responds with
// bounded retries, swap rollback, slot retirement, and degraded mode; the
// zero value disables injection and leaves results byte-identical.
type FaultConfig = fault.Config

// FaultReport is the fault-handling ledger returned in Result.Faults:
// injected faults per point and the disposition of each (retried, rolled
// back, retired, degraded).
type FaultReport = fault.Report

// Result re-exports the simulation outcome.
type Result = sim.Result

// Span is one cycle-domain interval of the span trace (Result.Spans).
type Span = obs.Span

// EpochSample is one cumulative-counter record of the per-epoch time
// series (Result.Series).
type EpochSample = obs.EpochSample

// WriteChromeTrace serializes a span trace as Chrome trace-event JSON,
// loadable by chrome://tracing and Perfetto; timestamps are cycles and
// each pipeline stage renders as its own thread lane.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	return obs.WriteChromeTrace(w, spans)
}

// Record re-exports the trace record type.
type Record = trace.Record

// Batch re-exports the columnar record batch a Source fills.
type Batch = trace.Batch

// Source re-exports the trace source interface. A custom source
// implements NextBatch(*Batch) (int, error): it fills the caller-sized
// batch from index 0, returns how many records it wrote, and reports
// io.EOF after the last record.
type Source = trace.Source

// System is a configured heterogeneous-memory simulation.
type System struct {
	cfg sim.Config
}

// New validates cfg and builds a System. Migration is OS-assisted below
// 1 MB macro pages and pure hardware from there up, the paper's
// feasibility split.
func New(c Config) (*System, error) {
	scfg := sim.Default()
	if c.TotalCapacity > 0 {
		scfg.Geometry.TotalCapacity = c.TotalCapacity
	}
	if c.OnPackageCapacity > 0 {
		scfg.Geometry.OnPackageCapacity = c.OnPackageCapacity
	}
	if c.MacroPageSize > 0 {
		scfg.Geometry.MacroPageSize = c.MacroPageSize
	}
	if c.SubBlockSize > 0 {
		scfg.Geometry.SubBlockSize = c.SubBlockSize
	}
	if c.Migration.Enabled {
		scfg.Migration = &core.Options{
			Design:       c.Migration.Design,
			SwapInterval: c.Migration.SwapInterval,
		}
		scfg.OSAssisted = scfg.Geometry.MacroPageSize < core.PureHardwareMinPage
	}
	sp, err := scheme.Parse(c.Scheme)
	if err != nil {
		return nil, fmt.Errorf("heteromem: %w", err)
	}
	scfg.Scheme = sp
	scfg.Channels = c.Channels
	scfg.MeterPower = c.MeterPower
	scfg.Warmup = c.Warmup
	scfg.Metrics = c.Metrics
	scfg.SpanTrace = c.SpanTrace
	scfg.EpochSeries = c.EpochSeries
	scfg.Audit = c.Audit
	scfg.Fault = c.Fault
	if err := scfg.Validate(); err != nil {
		return nil, fmt.Errorf("heteromem: %w", err)
	}
	return &System{cfg: scfg}, nil
}

// Run simulates up to maxRecords accesses from src (0 = the whole trace).
func (s *System) Run(src Source, maxRecords uint64) (Result, error) {
	return s.RunContext(context.Background(), src, maxRecords, Checkpointing{})
}

// RunWorkload simulates one of the built-in Section IV workloads
// (see Workloads) with the given seed.
func (s *System) RunWorkload(name string, seed int64, maxRecords uint64) (Result, error) {
	gen, err := workload.NewMemory(name, seed)
	if err != nil {
		return Result{}, err
	}
	return s.RunContext(context.Background(), gen, maxRecords, Checkpointing{})
}

// RunContext is Run with cooperative cancellation and checkpointing. The
// context is polled every few thousand records (never in the per-record hot
// path), and a cancelled run returns an error wrapping ctx.Err().
// Cancellation never alters simulated results: an uncancelled RunContext
// with the zero Checkpointing is byte-identical to Run. To checkpoint a
// built-in workload, pass NewGenerator(MemoryWorkload(name), seed) as src.
func (s *System) RunContext(ctx context.Context, src Source, maxRecords uint64, ck Checkpointing) (Result, error) {
	cfg := s.cfg
	cfg.MaxRecords = maxRecords
	cfg.CheckpointEvery = ck.Every
	cfg.CheckpointSink = ck.Sink
	cfg.Resume = ck.Resume
	return sim.RunContext(ctx, src, cfg)
}

// Checkpointing configures periodic run-state snapshots and crash-resilient
// resume for RunContext; the zero value takes none. Every `Every` records
// the complete simulation state — controller, devices, schedulers,
// migration engine, fault injector, and trace-source position — is
// serialized into a versioned, checksummed snapshot and handed to Sink. A
// run restarted with Resume set to any such snapshot (same configuration,
// same freshly constructed source) produces a Result identical to the
// uninterrupted run. The built-in workload generators serialize their full
// PRNG state into the checkpoint, so resume is exact at any boundary.
// Checkpointing is incompatible with the observability collectors
// (Metrics, SpanTrace, EpochSeries).
type Checkpointing struct {
	Every  uint64                                  // records between checkpoints (0 = off)
	Sink   func(data []byte, records uint64) error // receives each checkpoint
	Resume []byte                                  // checkpoint to resume from (nil = fresh run)
}

// CheckpointInfo summarizes a checkpoint file without restoring it.
type CheckpointInfo = sim.CheckpointInfo

// InspectCheckpoint validates a checkpoint's checksums and version and
// returns its metadata.
func InspectCheckpoint(data []byte) (CheckpointInfo, error) {
	return sim.InspectCheckpoint(data)
}

// ErrConfigMismatch reports a checkpoint taken under a different
// configuration than the one resuming from it.
var ErrConfigMismatch = sim.ErrConfigMismatch

// Workloads lists the built-in Section IV trace workloads.
func Workloads() []string { return workload.Names() }

// ProgramWorkloads lists the built-in NPB program-level workloads used by
// the Section II cache and IPC experiments.
func ProgramWorkloads() []string { return workload.ProgramNames() }

// Effectiveness computes the paper's η metric:
// (latNoMig − latMig) / (latNoMig − coreLat) × 100%.
func Effectiveness(latNoMig, latMig, coreLat float64) float64 {
	return sim.Effectiveness(latNoMig, latMig, coreLat)
}

// HardwareBits returns the pure-hardware migration cost in bits for a
// given on-package size and granularity (Fig. 10's curve; 9,228 bits for
// 1 GB at 4 MB pages with 4 KB sub-blocks).
func HardwareBits(onPackageBytes, macroPage, subBlock uint64) uint64 {
	return core.HardwareBits(onPackageBytes, macroPage, subBlock, addr.Bits)
}

// DefaultLatencies returns the reconstructed Table II latency components.
func DefaultLatencies() config.Latencies { return config.TableIILatencies() }
