package scheme

import (
	"fmt"
	"math/bits"

	"heteromem/internal/cache"
	"heteromem/internal/snap"
)

// predictorEntries sizes the miss predictor's saturating-counter table.
// MAP-I indexes by instruction PC; a trace-driven model has no PCs, so
// this is the MAP-M variant: indexed by block address.
const predictorEntries = 512

// predictor is a table of 3-bit saturating counters, initialized weakly
// toward "hit" so an untrained predictor serializes probes (safe) rather
// than spraying off-package fetches.
type predictor struct {
	ctr []uint8
}

func newPredictor() *predictor {
	p := &predictor{ctr: make([]uint8, predictorEntries)}
	for i := range p.ctr {
		p.ctr[i] = 4
	}
	return p
}

func (p *predictor) predictHit(block uint64) bool {
	return p.ctr[block&(predictorEntries-1)] >= 4
}

func (p *predictor) update(block uint64, hit bool) {
	i := block & (predictorEntries - 1)
	if hit {
		if p.ctr[i] < 7 {
			p.ctr[i]++
		}
	} else if p.ctr[i] > 0 {
		p.ctr[i]--
	}
}

// Alloy is the direct-mapped tag-and-data (TAD) cache of AlloyCache
// (Qureshi & Loh, MICRO'11): tag and data stream out in one burst, so a
// hit costs a single on-package access and a miss's probe returns the
// victim's data for free (no separate victim read on writeback). With the
// predictor enabled, a predicted miss overlaps the probe with the
// off-package fetch instead of paying them serially.
//
// base offsets the slot addresses: 0 for the standalone scheme, the
// memory-part boundary for the cache part of memcache.
type Alloy struct {
	spec       Spec
	blockShift uint
	base       uint64
	arr        *cache.SetArray
	pred       *predictor
	stats      Stats
}

// NewAlloy builds an alloy cache over capacity bytes of on-package space
// starting at machine address base, with blockBytes lines.
func NewAlloy(spec Spec, capacity, base, blockBytes uint64) (*Alloy, error) {
	if blockBytes == 0 || blockBytes&(blockBytes-1) != 0 {
		return nil, fmt.Errorf("scheme: alloy block size %d not a power of two", blockBytes)
	}
	sets := capacity / blockBytes
	arr, err := cache.NewSetArray(sets, 1)
	if err != nil {
		return nil, fmt.Errorf("scheme: alloy capacity %d / block %d: %w", capacity, blockBytes, err)
	}
	a := &Alloy{
		spec:       spec,
		blockShift: uint(bits.TrailingZeros64(blockBytes)),
		base:       base,
		arr:        arr,
	}
	if spec.Predictor {
		a.pred = newPredictor()
	}
	return a, nil
}

// String implements Cache.
func (a *Alloy) String() string { return a.spec.String() }

// Stats implements Cache.
func (a *Alloy) Stats() Stats { return a.stats }

// BlockBytes implements Cache.
func (a *Alloy) BlockBytes() uint64 { return 1 << a.blockShift }

// Lookup implements Cache. Allocation-free.
func (a *Alloy) Lookup(phys uint64, write bool) Result {
	a.stats.Accesses++
	block := phys >> a.blockShift
	set := block % a.arr.Sets()
	tag := block / a.arr.Sets()
	res := Result{Slot: a.base + set<<a.blockShift}
	if hit, _ := a.arr.Probe(set, tag, write); hit {
		a.stats.Hits++
		res.Hit = true
		if a.pred != nil {
			if !a.pred.predictHit(block) {
				// Predicted miss on a hit: the speculative off-package
				// fetch was already in flight and is thrown away.
				res.WastedOff = true
				a.stats.WastedOff++
			}
			a.pred.update(block, true)
		}
		return res
	}
	a.stats.Misses++
	a.stats.Fills++
	res.Probe = true
	if a.pred != nil {
		if !a.pred.predictHit(block) {
			res.Parallel = true
			a.stats.ProbeSkips++
		}
		a.pred.update(block, false)
	}
	vt, vd, vv := a.arr.Insert(set, tag, write)
	if vv && vd {
		a.stats.Writebacks++
		res.WB = true
		res.WBAddr = (vt*a.arr.Sets() + set) << a.blockShift
	}
	return res
}

// Snap implements snap.Snapshotter.
func (a *Alloy) Snap(s *snap.Stream) {
	a.arr.Snap(s)
	a.stats.snap(s)
	if s.Present(a.pred != nil, "alloy predictor") {
		for i := range a.pred.ctr {
			s.U8(&a.pred.ctr[i])
		}
	}
}
