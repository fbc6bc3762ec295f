package cache

import (
	"fmt"

	"heteromem/internal/config"
)

// Level identifies where an access was served.
type Level int

// Hierarchy levels; Memory means the access left the SRAM hierarchy.
const (
	L1 Level = iota + 1
	L2
	L3
	Memory
)

// String names the level.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case Memory:
		return "memory"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Hierarchy is the Table II SRAM hierarchy: private L1 and L2 per core and
// a shared L3. Write-back traffic below the hit level is accounted but not
// timed (it is off the load's critical path).
type Hierarchy struct {
	l1 []*Cache
	l2 []*Cache
	l3 *Cache
}

// NewHierarchy builds the hierarchy from Table II level descriptions for
// the given core count. levels must be ordered L1, L2, L3.
func NewHierarchy(cores int, levels []config.CacheLevel) (*Hierarchy, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("cache: need at least one core")
	}
	if len(levels) != 3 {
		return nil, fmt.Errorf("cache: want 3 levels (L1,L2,L3), got %d", len(levels))
	}
	h := &Hierarchy{}
	for c := 0; c < cores; c++ {
		l1, err := New(fmt.Sprintf("%s[%d]", levels[0].Name, c), levels[0].Size, levels[0].LineSize, levels[0].Ways)
		if err != nil {
			return nil, err
		}
		l2, err := New(fmt.Sprintf("%s[%d]", levels[1].Name, c), levels[1].Size, levels[1].LineSize, levels[1].Ways)
		if err != nil {
			return nil, err
		}
		h.l1 = append(h.l1, l1)
		h.l2 = append(h.l2, l2)
	}
	l3, err := New(levels[2].Name, levels[2].Size, levels[2].LineSize, levels[2].Ways)
	if err != nil {
		return nil, err
	}
	h.l3 = l3
	return h, nil
}

// ResizeL3 rebuilds the shared L3 at a new capacity, reusing the existing
// slot array when it has room, and resets every private level — the
// result is indistinguishable from a freshly built hierarchy with the new
// L3 size. Capacity sweeps that walk sizes largest-first through one
// hierarchy therefore pay the L3 slot allocation once instead of once per
// point.
func (h *Hierarchy) ResizeL3(size uint64) error {
	old := h.l3
	l3, err := NewWithSlots(old.arr.slots, old.name, size, 1<<old.lineShift, old.arr.ways)
	if err != nil {
		return err
	}
	h.l3 = l3
	for i := range h.l1 {
		h.l1[i].Reset()
		h.l2[i].Reset()
	}
	return nil
}

// Access walks one access down the hierarchy and returns the level that
// served it.
func (h *Hierarchy) Access(cpu int, a uint64, write bool) Level {
	cpu %= len(h.l1)
	if hit, _, _ := h.l1[cpu].Access(a, write); hit {
		return L1
	}
	if hit, _, _ := h.l2[cpu].Access(a, write); hit {
		return L2
	}
	if hit, _, _ := h.l3.Access(a, write); hit {
		return L3
	}
	return Memory
}

// L3Stats returns the shared LLC counters.
func (h *Hierarchy) L3Stats() Stats { return h.l3.Stats() }

// Reset clears every level.
func (h *Hierarchy) Reset() {
	for i := range h.l1 {
		h.l1[i].Reset()
		h.l2[i].Reset()
	}
	h.l3.Reset()
}
