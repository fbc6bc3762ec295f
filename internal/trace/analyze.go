package trace

import "fmt"

// WindowStat summarizes one analysis window of a trace.
type WindowStat struct {
	FirstCycle uint64
	LastCycle  uint64
	Accesses   uint64
	Writes     uint64
	UniqueHot  uint64 // distinct blocks touched within the window (the instantaneous working set)
	NewBlocks  uint64 // blocks never seen in any earlier window (footprint growth)
}

// Analysis is the outcome of Analyze.
type Analysis struct {
	Records   uint64
	Writes    uint64
	MinAddr   uint64
	MaxAddr   uint64
	Footprint uint64 // distinct blocks ever touched x block size
	BlockSize uint64
	Windows   []WindowStat
	MeanGap   float64 // mean cycles between accesses
	LastCycle uint64
}

// WriteShare returns the store fraction.
func (a Analysis) WriteShare() float64 {
	if a.Records == 0 {
		return 0
	}
	return float64(a.Writes) / float64(a.Records)
}

// Analyze scans a trace and reports footprint, write mix, inter-arrival
// statistics, and the working-set size per window of `window` accesses at
// `blockSize` granularity. It is the tool for validating that a synthetic
// workload has the footprint and drift its spec claims (DESIGN.md
// substitutions), and for sizing the on-package region for a real trace.
func Analyze(src Source, window uint64, blockSize uint64) (Analysis, error) {
	if window == 0 {
		return Analysis{}, fmt.Errorf("trace: analysis window must be positive")
	}
	if blockSize == 0 || blockSize&(blockSize-1) != 0 {
		return Analysis{}, fmt.Errorf("trace: block size %d must be a power of two", blockSize)
	}
	a := Analysis{MinAddr: ^uint64(0), BlockSize: blockSize}
	ever := make(map[uint64]struct{})
	cur := make(map[uint64]struct{})
	var w WindowStat
	var firstCycle uint64
	flush := func() {
		if w.Accesses > 0 {
			w.UniqueHot = uint64(len(cur))
			a.Windows = append(a.Windows, w)
		}
		cur = make(map[uint64]struct{})
		w = WindowStat{}
	}
	_, err := Each(src, 0, func(rec Record) error {
		if a.Records == 0 {
			firstCycle = rec.Cycle
		}
		a.Records++
		a.LastCycle = rec.Cycle
		if rec.Write {
			a.Writes++
			w.Writes++
		}
		if rec.Addr < a.MinAddr {
			a.MinAddr = rec.Addr
		}
		if rec.Addr > a.MaxAddr {
			a.MaxAddr = rec.Addr
		}
		blk := rec.Addr / blockSize
		if _, seen := ever[blk]; !seen {
			ever[blk] = struct{}{}
			w.NewBlocks++
		}
		cur[blk] = struct{}{}
		if w.Accesses == 0 {
			w.FirstCycle = rec.Cycle
		}
		w.Accesses++
		w.LastCycle = rec.Cycle
		if w.Accesses >= window {
			flush()
		}
		return nil
	})
	if err != nil {
		return a, err
	}
	flush()
	a.Footprint = uint64(len(ever)) * blockSize
	if a.Records > 1 && a.LastCycle > firstCycle {
		a.MeanGap = float64(a.LastCycle-firstCycle) / float64(a.Records-1)
	}
	if a.Records == 0 {
		a.MinAddr = 0
	}
	return a, nil
}
