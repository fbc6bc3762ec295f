package scheme

import (
	"fmt"
	"math/bits"

	"heteromem/internal/cache"
	"heteromem/internal/snap"
)

// TagCache parameters: the paper's Section II strawman is a set-associative
// L4 with tags held in the DRAM array itself, so a hit costs a tag read
// plus a data read — about 2× one on-package access, the L4HitLatency the
// latency table already carries. A small SRAM tag buffer caches recently
// read set tags; a buffer hit skips the in-DRAM tag read.
const (
	tagCacheWays     = 16
	tagBufferEntries = 8192
)

// TagCache is the cachemode scheme.
type TagCache struct {
	spec       Spec
	blockShift uint
	arr        *cache.SetArray
	tb         []uint64 // direct-mapped SRAM tag buffer: set+1, 0 = empty
	tbMask     uint64
	stats      Stats
}

// NewTagCache builds the tag-in-DRAM L4 over capacity bytes with
// blockBytes lines.
func NewTagCache(spec Spec, capacity, blockBytes uint64) (*TagCache, error) {
	if blockBytes == 0 || blockBytes&(blockBytes-1) != 0 {
		return nil, fmt.Errorf("scheme: cachemode block size %d not a power of two", blockBytes)
	}
	sets := capacity / blockBytes / tagCacheWays
	arr, err := cache.NewSetArray(sets, tagCacheWays)
	if err != nil {
		return nil, fmt.Errorf("scheme: cachemode capacity %d / block %d: %w", capacity, blockBytes, err)
	}
	return &TagCache{
		spec:       spec,
		blockShift: uint(bits.TrailingZeros64(blockBytes)),
		arr:        arr,
		tb:         make([]uint64, tagBufferEntries),
		tbMask:     tagBufferEntries - 1,
	}, nil
}

// String implements Cache.
func (t *TagCache) String() string { return t.spec.String() }

// Stats implements Cache.
func (t *TagCache) Stats() Stats { return t.stats }

// BlockBytes implements Cache.
func (t *TagCache) BlockBytes() uint64 { return 1 << t.blockShift }

// slotAddr maps (set, recency way) to the on-package machine address of
// the data line. Slot order within a set is recency order, so the model
// places a block at its recency position — an approximation that keeps one
// word per slot (the alternative is tracking physical ways separately,
// which changes only which bank a line's bursts land in).
func (t *TagCache) slotAddr(set uint64, way int) uint64 {
	return (set*tagCacheWays + uint64(way)) << t.blockShift
}

// Lookup implements Cache. Allocation-free.
func (t *TagCache) Lookup(phys uint64, write bool) Result {
	t.stats.Accesses++
	block := phys >> t.blockShift
	set := block % t.arr.Sets()
	tag := block / t.arr.Sets()

	// SRAM tag buffer: a miss means the set's tag line must be read from
	// the DRAM array before the data access can issue (serial probe). The
	// probe installs the set's tags either way.
	probe := t.tb[set&t.tbMask] != set+1
	if probe {
		t.stats.TagProbes++
		t.tb[set&t.tbMask] = set + 1
	}

	if hit, way := t.arr.Probe(set, tag, write); hit {
		t.stats.Hits++
		return Result{Hit: true, Probe: probe, Slot: t.slotAddr(set, way)}
	}
	t.stats.Misses++
	t.stats.Fills++
	res := Result{Probe: probe, Slot: t.slotAddr(set, 0)}
	vt, vd, vv := t.arr.Insert(set, tag, write)
	if vv && vd {
		t.stats.Writebacks++
		res.WB = true
		res.WBAddr = (vt*t.arr.Sets() + set) << t.blockShift
		// The in-DRAM tag line carries no data, so evicting a dirty
		// victim costs a real on-package read before the off write.
		res.VictimRead = true
	}
	return res
}

// Snap implements snap.Snapshotter. The tag buffer serializes sparsely
// like the slot array.
func (t *TagCache) Snap(s *snap.Stream) {
	t.arr.Snap(s)
	snap.Sparse(s, "tag-buffer index", t.tb, 0, snap.Uint32[int], (*snap.Stream).U64)
	t.stats.snap(s)
}
