// Package workload synthesizes the memory-access traces of the paper's
// evaluation. The real study collected traces from a full-system simulator
// running NPB 3.3, SPEC2006, pgbench, a Nutch indexer, and SPECjbb2005;
// those traces are not available, so each workload is modeled as a weighted
// mixture of access-pattern streams whose footprint (Table I / Table III),
// hot-set size, skew, drift, and read/write mix match the workload's
// published character. DESIGN.md section 2 documents why this substitution
// preserves the behaviour the experiments measure.
package workload

import (
	"heteromem/internal/rng"
	"heteromem/internal/snap"
)

// stream produces a sequence of byte offsets within a region of the
// workload's address space. Every stream carries its mutable position
// state through snap (streams_snapshot.go) so a Generator mid-trace is
// checkpointable; distribution parameters and layout are rebuilt from the
// Spec.
type stream interface {
	next(rng *rng.Rand) uint64
	snap(s *snap.Stream)
}

// seqStream walks a region sequentially with a fixed stride, wrapping.
// Models array sweeps (the dominant pattern of stencil/FFT kernels).
type seqStream struct {
	size   uint64 // region size in bytes
	stride uint64
	pos    uint64
}

// newSeqStreamAt returns a sweep starting 5/8 of the way into the region,
// so a finite trace window samples the sweep mid-flight instead of
// beginning at the region's start. The position is deterministic: a random
// start would make the static-mapping baseline swing wildly between seeds
// depending on whether the front happens to begin inside the statically
// on-package low addresses.
func newSeqStreamAt(_ *rng.Rand, size, stride uint64) *seqStream {
	pos := size * 5 / 8 / stride * stride
	return &seqStream{size: size, stride: stride, pos: pos}
}

func (s *seqStream) next(*rng.Rand) uint64 {
	a := s.pos
	s.pos += s.stride
	if s.pos >= s.size {
		s.pos -= s.size
	}
	return a
}

// stridedStream sweeps a region with a large stride, restarting at an
// incremented base after each pass — the classic transposed-dimension walk
// of a multidimensional FFT. At each stride position it touches `chunk`
// bytes in 64 B steps (one element row worth of cache lines) before
// jumping; chunk 0 means a single 64 B touch.
type stridedStream struct {
	size   uint64
	stride uint64 // large stride (row length of the transposed walk)
	unit   uint64 // base increment after a full pass
	chunk  uint64 // contiguous bytes touched per stride position
	pos    uint64
	base   uint64
	inCh   uint64
}

func (s *stridedStream) next(*rng.Rand) uint64 {
	chunk := s.chunk
	if chunk < 64 {
		chunk = 64
	}
	a := s.base + s.pos + s.inCh
	s.inCh += 64
	if s.inCh >= chunk {
		s.inCh = 0
		s.pos += s.stride
		if s.base+s.pos+chunk > s.size {
			s.base += s.unit
			if s.base >= s.stride {
				s.base = 0
			}
			s.pos = 0
		}
	}
	return a
}

// zipfStream draws blocks from a region with Zipf-skewed popularity. Block
// ranks are scattered across the region with a hash so the hot set is not
// physically contiguous — the shape of transactional/server heaps, and the
// reason those workloads favor fine migration granularity in the paper.
type zipfStream struct {
	z       *rng.Zipf
	block   uint64
	nblocks uint64
	scatter bool
}

func newZipfStream(r *rng.Rand, size, block uint64, s float64, scatter bool) *zipfStream {
	n := size / block
	if n == 0 {
		n = 1
	}
	return &zipfStream{
		z:       rng.NewZipf(r, s, 1, n-1),
		block:   block,
		nblocks: n,
		scatter: scatter,
	}
}

func (s *zipfStream) next(rng *rng.Rand) uint64 {
	rank := s.z.Uint64()
	blk := rank
	if s.scatter {
		blk = splitmix64(rank) % s.nblocks
	}
	return blk*s.block + uint64(rng.Int63n(int64(s.block)))&^63
}

// uniformStream touches a region uniformly at random — the cache-hostile
// gather of CG's sparse matvec or IS's bucket scatter.
type uniformStream struct {
	size uint64
}

func (s *uniformStream) next(rng *rng.Rand) uint64 {
	return uint64(rng.Int63n(int64(s.size))) &^ 63
}

// chaseStream is a pseudo pointer chase: a multiplicative LCG walk over the
// region, dependent-load-like with no spatial locality (mcf's lists).
type chaseStream struct {
	size uint64
	cur  uint64
}

func (s *chaseStream) next(*rng.Rand) uint64 {
	s.cur = s.cur*6364136223846793005 + 1442695040888963407
	return s.cur % s.size &^ 63
}

// vcycleStream models a multigrid V-cycle: mostly sequential sweeps of the
// finest grid, periodically descending through geometrically smaller grids
// and back — a large footprint whose instantaneous working set shrinks and
// grows with the cycle.
type vcycleStream struct {
	levels []seqStream // level 0 = finest
	sched  []int       // visit order: 0,1,2,...,k,...,2,1,0 repeated
	per    int         // accesses per level visit (scaled by level size)
	idx    int
	count  int
}

func newVCycleStream(size uint64, levels int, perVisit int) *vcycleStream {
	v := &vcycleStream{per: perVisit}
	// The finest level takes 7/8 of the region so the geometric level
	// series (ratio 1/8, 3D coarsening) fits inside the region exactly.
	sz := size / 8 * 7
	for i := 0; i < levels; i++ {
		v.levels = append(v.levels, seqStream{size: sz, stride: 64})
		if sz > 4096*8 {
			sz /= 8 // 3D coarsening
		}
	}
	for i := 0; i < levels; i++ {
		v.sched = append(v.sched, i)
	}
	for i := levels - 2; i >= 0; i-- {
		v.sched = append(v.sched, i)
	}
	return v
}

// base returns the byte offset of level l within the workload region
// (levels are laid out contiguously, finest first).
func (v *vcycleStream) base(l int) uint64 {
	var b uint64
	for i := 0; i < l; i++ {
		b += v.levels[i].size
	}
	return b
}

func (v *vcycleStream) next(rng *rng.Rand) uint64 {
	l := v.sched[v.idx]
	a := v.base(l) + v.levels[l].next(rng)
	v.count++
	// Coarser grids get proportionally fewer accesses per visit.
	quota := v.per >> uint(2*l)
	if quota < 1 {
		quota = 1
	}
	if v.count >= quota {
		v.count = 0
		v.idx = (v.idx + 1) % len(v.sched)
	}
	return a
}

// driftStream shifts another stream's base offset within a window every
// `period` accesses — the slowly moving hot set that makes dynamic
// migration beat static mapping.
type driftStream struct {
	inner  stream
	window uint64 // region the base may wander over
	span   uint64 // size of the inner stream's footprint
	period uint64
	slide  uint64 // bytes the base advances per period; 0 = random jumps
	count  uint64
	base   uint64
	init   bool
}

func (d *driftStream) next(rng *rng.Rand) uint64 {
	if !d.init {
		// Start mid-window for the same determinism reason as
		// newSeqStreamAt: the static baseline must not depend on whether
		// the first hot window lands in the statically mapped low region.
		d.init = true
		if d.window > d.span {
			d.base = (d.window - d.span) / 2 &^ 4095
		}
	}
	d.count++
	if d.count >= d.period {
		d.count = 0
		if d.slide > 0 {
			// Sliding hot region (an FFT pass progressing through its
			// arrays): promoted pages stay useful until the window passes.
			d.base += d.slide
			if d.base+d.span > d.window {
				d.base = 0
			}
		} else if d.window > d.span {
			d.base = uint64(rng.Int63n(int64(d.window-d.span))) &^ 4095
		}
	}
	return d.base + d.inner.next(rng)
}

// splitmix64 is the SplitMix64 finalizer, used as a deterministic scatter
// hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
