package scheme

import (
	"fmt"

	"heteromem/internal/snap"
)

// MemCache splits the on-package capacity: the low MemBytes run as
// migrated memory under the existing N / N-1 / Live machinery (the
// controller builds its migrator with proportionally fewer slots), and the
// rest runs as an alloy-style cache in front of the off-package region.
// Accesses whose page is resident in the memory part never consult the
// cache part; everything routed off-package tries the cache first. This is
// the part-cache/part-memory hybrid of "Die-Stacked DRAM: Memory, Cache,
// or MemCache?".
type MemCache struct {
	spec     Spec
	memBytes uint64
	part     *Alloy
}

// NewMemCache builds the split over capacity bytes of on-package space.
// pageSize aligns the memory part (it must hold whole migration slots);
// blockBytes is the cache part's line size.
func NewMemCache(spec Spec, capacity, pageSize, blockBytes uint64) (*MemCache, error) {
	mem := spec.MemFraction(capacity, pageSize)
	if mem < pageSize || mem >= capacity {
		return nil, fmt.Errorf("scheme: memcache split %d%% of %d leaves no usable memory part (page %d)",
			spec.memPercent(), capacity, pageSize)
	}
	part, err := NewAlloy(spec, capacity-mem, mem, blockBytes)
	if err != nil {
		return nil, fmt.Errorf("scheme: memcache cache part: %w", err)
	}
	return &MemCache{spec: spec, memBytes: mem, part: part}, nil
}

// String implements Cache.
func (m *MemCache) String() string { return m.spec.String() }

// Stats implements Cache (the cache part's counters).
func (m *MemCache) Stats() Stats { return m.part.Stats() }

// MemBytes returns the memory-part capacity: the boundary between the
// migrated region and the cache region in on-package machine space.
func (m *MemCache) MemBytes() uint64 { return m.memBytes }

// BlockBytes implements Cache.
func (m *MemCache) BlockBytes() uint64 { return m.part.BlockBytes() }

// Lookup implements Cache for the cache part; the controller calls it only
// for accesses the migrator routed off-package.
func (m *MemCache) Lookup(phys uint64, write bool) Result {
	return m.part.Lookup(phys, write)
}

// Snap implements snap.Snapshotter. The memory part's migrator snapshots
// through the controller's existing migration slot; this covers the cache
// part only.
func (m *MemCache) Snap(s *snap.Stream) { m.part.Snap(s) }
