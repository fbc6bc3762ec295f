// Package cache implements the packed set store every cache model of the
// simulator keeps its slots in (SetArray) and, on it, the SRAM cache
// hierarchy of the Section II full-system comparison (private L1/L2,
// shared L3). The on-package DRAM L4 (cpu.L4Backed) and the cache-managed
// capacity schemes (internal/scheme) build on the same store.
package cache

import (
	"fmt"
	"math/bits"
)

// Stats counts cache events.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// MissRate returns misses/accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative, write-back, write-allocate cache with true
// LRU replacement, its slots held in a SetArray indexed by shift: the set
// is the low bits of the line address, the tag the bits above them.
type Cache struct {
	name      string
	lineShift uint   // log2(lineSize); New enforces the power of two
	setShift  uint   // log2(sets); New enforces the power of two
	setMask   uint64 // sets-1
	arr       SetArray
	stats     Stats
}

// New builds a cache. size must be ways*lineSize*2^k for some k.
func New(name string, size, lineSize uint64, ways int) (*Cache, error) {
	return NewWithSlots(nil, name, size, lineSize, ways)
}

// NewWithSlots is New with a caller-provided slot arena: when buf has
// capacity for the cache's slot array the slots are served from it
// (cleared first, so the cache starts cold either way); otherwise a fresh
// array is allocated. Recycling one arena across sequentially built
// caches avoids re-paying the dominant allocation of capacity sweeps.
func NewWithSlots(buf []uint64, name string, size, lineSize uint64, ways int) (*Cache, error) {
	if ways <= 0 || lineSize == 0 || size == 0 {
		return nil, fmt.Errorf("cache %s: invalid shape size=%d line=%d ways=%d", name, size, lineSize, ways)
	}
	if lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", name, lineSize)
	}
	lines := size / lineSize
	if lines%uint64(ways) != 0 {
		return nil, fmt.Errorf("cache %s: %d lines not divisible by %d ways", name, lines, ways)
	}
	sets := lines / uint64(ways)
	if sets == 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two (size=%d)", name, sets, size)
	}
	arr, err := newSetArray(buf, sets, ways)
	if err != nil {
		return nil, err
	}
	return &Cache{
		name:      name,
		lineShift: uint(bits.TrailingZeros64(lineSize)),
		setShift:  uint(bits.TrailingZeros64(sets)),
		setMask:   sets - 1,
		arr:       arr,
	}, nil
}

// Access performs one access. It returns whether it hit and, on a miss
// that evicted a dirty line, the victim's line-aligned address for
// writeback accounting.
func (c *Cache) Access(a uint64, write bool) (hit bool, writeback uint64, hasWB bool) {
	c.stats.Accesses++
	line := a >> c.lineShift
	set := line & c.setMask
	tag := line >> c.setShift
	if hit, _ := c.arr.Probe(set, tag, write); hit {
		c.stats.Hits++
		return true, 0, false
	}
	c.stats.Misses++
	vt, vd, vv := c.arr.Insert(set, tag, write)
	if vv {
		c.stats.Evictions++
		if vd {
			c.stats.Writebacks++
			hasWB = true
			writeback = (vt<<c.setShift | set) << c.lineShift
		}
	}
	return false, writeback, hasWB
}

// Stats returns the counters so far.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.arr.slots)
	c.stats = Stats{}
}
