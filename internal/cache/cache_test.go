package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"heteromem/internal/config"
)

func newCache(t *testing.T, size, line uint64, ways int) *Cache {
	t.Helper()
	c, err := New("test", size, line, ways)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		size, line uint64
		ways       int
	}{
		{0, 64, 8},
		{1024, 0, 8},
		{1024, 64, 0},
		{1024, 48, 4},   // line not pow2
		{64 * 3, 64, 1}, // sets not pow2
		{64 * 7, 64, 8}, // lines not divisible by ways
	}
	for i, c := range cases {
		if _, err := New("bad", c.size, c.line, c.ways); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := newCache(t, 4096, 64, 4)
	if hit, _, _ := c.Access(128, false); hit {
		t.Fatal("cold cache hit")
	}
	if hit, _, _ := c.Access(128, false); !hit {
		t.Fatal("second access missed")
	}
	if hit, _, _ := c.Access(129, false); !hit {
		t.Fatal("same-line access missed")
	}
	st := c.Stats()
	if st.Accesses != 3 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache with 1 set: 3 distinct lines evict the least recent.
	c := newCache(t, 128, 64, 2)
	c.Access(0, false)   // A
	c.Access(64, false)  // B
	c.Access(0, false)   // touch A (B is now LRU)
	c.Access(128, false) // C evicts B
	if hit, _, _ := c.Access(0, false); !hit {
		t.Fatal("A evicted despite being MRU")
	}
	if hit, _, _ := c.Access(128, false); !hit {
		t.Fatal("C not inserted")
	}
	if hit, _, _ := c.Access(64, false); hit {
		t.Fatal("B not evicted despite being LRU")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := newCache(t, 128, 64, 1)           // direct-mapped, 2 sets
	c.Access(0, true)                      // dirty line in set 0
	hit, wb, hasWB := c.Access(128, false) // same set, evicts dirty line
	if hit {
		t.Fatal("conflicting access hit")
	}
	if !hasWB || wb != 0 {
		t.Fatalf("writeback = %d,%v, want 0,true", wb, hasWB)
	}
	st := c.Stats()
	if st.Writebacks != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Clean eviction: no writeback.
	if _, _, hasWB := c.Access(0, false); hasWB {
		t.Fatal("clean eviction produced a writeback")
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := newCache(t, 128, 64, 1)
	c.Access(0, false) // clean
	c.Access(0, true)  // hit, makes dirty
	_, _, hasWB := c.Access(128, false)
	if !hasWB {
		t.Fatal("write hit did not mark the line dirty")
	}
}

func TestReset(t *testing.T) {
	c := newCache(t, 4096, 64, 4)
	c.Access(0, true)
	c.Reset()
	if c.Stats() != (Stats{}) {
		t.Fatal("stats survive reset")
	}
	if hit, _, _ := c.Access(0, false); hit {
		t.Fatal("contents survive reset")
	}
}

func TestMissRateBoundsProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := newCache(t, 8192, 64, 4)
		for _, a := range addrs {
			c.Access(uint64(a), false)
		}
		mr := c.Stats().MissRate()
		return mr >= 0 && mr <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a cache never holds more distinct lines than its capacity.
func TestCapacityInvariant(t *testing.T) {
	c := newCache(t, 1024, 64, 4) // 16 lines
	rng := rand.New(rand.NewSource(11))
	inserted := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		a := uint64(rng.Intn(1 << 20))
		c.Access(a, false)
		inserted[a/64] = true
	}
	// Probe each line on a copy of the filled cache, so one probe's fill
	// cannot evict a line a later probe counts.
	held := 0
	for line := range inserted {
		probe := *c
		probe.arr.slots = slices.Clone(c.arr.slots)
		if hit, _, _ := probe.Access(line*64, false); hit {
			held++
		}
	}
	if held > 16 {
		t.Fatalf("cache holds %d lines, capacity 16", held)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h, err := NewHierarchy(2, config.SRAMHierarchy())
	if err != nil {
		t.Fatal(err)
	}
	if lvl := h.Access(0, 4096, false); lvl != Memory {
		t.Fatalf("cold access served at %v, want memory", lvl)
	}
	if lvl := h.Access(0, 4096, false); lvl != L1 {
		t.Fatalf("hot access served at %v, want L1", lvl)
	}
	// A different core misses its private L1/L2 but hits the shared L3.
	if lvl := h.Access(1, 4096, false); lvl != L3 {
		t.Fatalf("cross-core access served at %v, want L3", lvl)
	}
}

func TestHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(0, config.SRAMHierarchy()); err == nil {
		t.Fatal("zero cores accepted")
	}
	if _, err := NewHierarchy(2, config.SRAMHierarchy()[:2]); err == nil {
		t.Fatal("two levels accepted")
	}
}
