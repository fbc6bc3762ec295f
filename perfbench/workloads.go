package main

import (
	"fmt"

	"heteromem/internal/addr"
	"heteromem/internal/core"
	"heteromem/internal/scheme"
	"heteromem/internal/sim"
)

// workload is one packed-replay configuration: traces drawn once in set-up
// from workload.NewMemory(trace, seed), packed into HMPK, and replayed
// through sim.Run. BENCHMARK.json records why each workload was chosen.
type workload struct {
	name    string
	trace   string // workload.NewMemory name
	records uint64 // records per trace, and so per sim.Run
	warmup  uint64 // leading records excluded from statistics
	config  func() sim.Config

	// digests pin the simulated output (see resultDigest) of each trace of
	// seed 1, the benchmark's default seed. Any change to them is a change
	// in what the model computes, which a speed-only change must not make.
	digests []string
}

const defaultSeed = 1

// tracesPerRun is how many traces, each from its own generator seed, one
// run replays. Simulated results depend on the generator seed in steps (on
// spec-live, seeds fall into two clusters of mean latency about 10% apart),
// and a longer trace does not average that out; pooling several seeds does.
const tracesPerRun = 4

// traceSeeds returns the generator seeds of a run: a block of tracesPerRun
// consecutive seeds, so distinct benchmark seeds share no trace and seed 1
// replays generator seeds 1 to 4.
func traceSeeds(seed int64) []int64 {
	seeds := make([]int64, tracesPerRun)
	for i := range seeds {
		seeds[i] = (seed-1)*tracesPerRun + 1 + int64(i)
	}
	return seeds
}

var workloads = []workload{
	{
		// SPEC2006, Live, 64 KiB pages, interval 1000: the plain per-record
		// path (decode, translate, migrator every record, on-package
		// scheduler, DRAM). Obs, scheme and sharding are bypassed. Same trace
		// and design as BenchmarkBatchReplay.
		name:    "spec-live",
		trace:   "SPEC2006",
		records: 2_000_000,
		warmup:  500_000,
		config: func() sim.Config {
			cfg := sim.Default()
			cfg.Geometry.MacroPageSize = 64 * addr.KiB
			cfg.Migration = &core.Options{Design: core.DesignLive, SwapInterval: 1000}
			// heteromem.New's feasibility rule: OS-assisted below 1 MiB pages.
			cfg.OSAssisted = cfg.Geometry.MacroPageSize < addr.MiB
			return cfg
		},
		digests: []string{"b7bebccdb6ab111e", "418e82de123ffbd9", "ed715c9afa0df589", "e4d20dfb5b287d71"},
	},
	{
		// FT, N-1, 4 MiB pages (Table III default), interval 10,000,
		// hardware-only, Metrics on: mostly off-package strided traffic, few
		// but large swaps, so the load is on the scheduler's bulk path, DRAM
		// bank timing and the P bit. The only workload with obs on.
		name:    "ft-n1-4m",
		trace:   "FT",
		records: 2_000_000,
		warmup:  500_000,
		config: func() sim.Config {
			cfg := sim.Default()
			cfg.Migration = &core.Options{Design: core.DesignN1, SwapInterval: 10_000}
			cfg.OSAssisted = cfg.Geometry.MacroPageSize < addr.MiB
			cfg.Metrics = true
			return cfg
		},
		digests: []string{"60ce259c6e5079d6", "7582b4a9347b474d", "95f776bc737ca55d", "b95ca7b5eafb727c"},
	},
	{
		// pgbench, alloy-pred cache, no migration, 64 KiB pages, two
		// channels through the sharded runner: no translation table, so
		// core changes are bypassed; the load is on the scheme tag array,
		// predictor, fill/writeback bulk jobs, Hub.Route, feeder and barrier.
		name:    "pgbench-alloy-c2",
		trace:   "pgbench",
		records: 2_000_000,
		warmup:  500_000,
		config: func() sim.Config {
			cfg := sim.Default()
			cfg.Geometry.MacroPageSize = 64 * addr.KiB
			cfg.Scheme = scheme.Spec{Kind: scheme.KindAlloy, Predictor: true} // alloy-pred
			cfg.Channels = 2
			return cfg
		},
		digests: []string{"a6f74a952d92423f", "4f843b72bd38c628", "549172f9e12c8b93", "bab5bc2689d7ef67"},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// runConfig is the workload's sim.Config bounded to its record count.
func (w workload) runConfig() sim.Config {
	cfg := w.config()
	cfg.MaxRecords = w.records
	cfg.Warmup = w.warmup
	return cfg
}
