package experiments

import (
	"context"

	"heteromem/internal/addr"
	"heteromem/internal/core"
	"heteromem/internal/sim"
)

// EpochTrajectoryPoint is one epoch of a workload's convergence trajectory
// under live migration: the cumulative routing mix, swap activity, and the
// effectiveness (η) the run had achieved by that boundary, measured against
// the same static baseline Table IV uses.
type EpochTrajectoryPoint struct {
	Epoch          uint64
	Cycle          int64
	Final          bool // the flush-time sample closing the run
	OnShare        float64
	PStalls        uint64
	StallCycles    uint64
	SwapsCompleted uint64
	MeanDRAMLat    float64
	Effectiveness  float64 // cumulative η vs the static baseline, percent
}

// TrajectoryPage and TrajectoryInterval pin the live-migration operating
// point the trajectory is sampled at (the paper's pure-hardware sweet spot:
// 4 MB macro pages swapped every 1,000 accesses).
const (
	TrajectoryPage     = 4 * addr.MiB
	TrajectoryInterval = 1000
)

// EpochTrajectoryData runs one workload twice — a static baseline and a
// live-migration run with per-epoch series sampling — and folds them into
// the effectiveness trajectory. Both runs measure from record zero (no
// warmup) so the cumulative per-epoch counters cover the whole run.
func EpochTrajectoryData(ctx context.Context, p Params, name string) ([]EpochTrajectoryPoint, error) {
	records := p.records(4_000_000)
	liveCfg := traceConfig(TrajectoryPage, &core.Options{Design: core.DesignLive, SwapInterval: TrajectoryInterval}, records, 0)
	liveCfg.EpochSeries = 1 << 16
	results, err := p.sweep(ctx, []cell{{name, traceConfig(64*addr.KiB, nil, records, 0)}, {name, liveCfg}})
	if err != nil {
		return nil, err
	}

	latNoMig := results[0].MeanDRAMLatency
	live := results[1]
	coreLat := live.Report.MeanCoreLat
	out := make([]EpochTrajectoryPoint, 0, len(live.Series))
	for _, s := range live.Series {
		pt := EpochTrajectoryPoint{
			Epoch:          s.Epoch,
			Cycle:          s.Cycle,
			Final:          s.Final,
			OnShare:        s.OnShare(),
			PStalls:        s.PStalls,
			StallCycles:    s.StallCycles,
			SwapsCompleted: s.SwapsCompleted,
			MeanDRAMLat:    s.MeanDRAMLatency(),
		}
		if s.DRAMLatN > 0 {
			pt.Effectiveness = sim.Effectiveness(latNoMig, pt.MeanDRAMLat, coreLat)
		}
		out = append(out, pt)
	}
	return out, nil
}
