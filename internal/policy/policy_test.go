package policy

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"heteromem/internal/snap"
)

func TestClockVictimPrefersUntouched(t *testing.T) {
	c, err := NewClockPLRU(4)
	if err != nil {
		t.Fatal(err)
	}
	c.Touch(0)
	c.Touch(1)
	c.Touch(3)
	if v := c.Victim(); v != 2 {
		t.Fatalf("victim = %d, want 2 (only untouched slot)", v)
	}
}

func TestClockSecondChance(t *testing.T) {
	c, _ := NewClockPLRU(3)
	for i := 0; i < 3; i++ {
		c.Touch(i)
	}
	// All referenced: the sweep clears bits, then slot 0 is the victim.
	if v := c.Victim(); v != 0 {
		t.Fatalf("victim = %d, want 0 after full sweep", v)
	}
	// Reference bits were cleared; re-touching 1 protects it.
	c.Touch(1)
	if v := c.Victim(); v != 2 {
		t.Fatalf("victim = %d, want 2 (hand at 1, which is referenced)", v)
	}
}

func TestClockPinning(t *testing.T) {
	c, _ := NewClockPLRU(2)
	c.Pin(0)
	if v := c.Victim(); v != 1 {
		t.Fatalf("victim = %d, want 1 (0 pinned)", v)
	}
	c.Pin(1)
	if v := c.Victim(); v != -1 {
		t.Fatalf("victim = %d, want -1 (all pinned)", v)
	}
	c.Unpin(0)
	if v := c.Victim(); v != 0 {
		t.Fatalf("victim = %d, want 0 after unpin", v)
	}
	if !c.Pinned(1) || c.Pinned(0) {
		t.Fatal("Pinned() disagrees with pin state")
	}
}

func TestClockBitCost(t *testing.T) {
	c, _ := NewClockPLRU(256)
	if c.BitCost() != 256 {
		t.Fatalf("bit cost = %d, want 256 (paper: 256 bits for 256 slots)", c.BitCost())
	}
}

func TestClockRejectsZeroSlots(t *testing.T) {
	if _, err := NewClockPLRU(0); err == nil {
		t.Fatal("NewClockPLRU(0) should fail")
	}
}

func TestClockVictimAlwaysValid(t *testing.T) {
	f := func(touches []uint8) bool {
		c, _ := NewClockPLRU(8)
		for _, v := range touches {
			c.Touch(int(v) % 8)
		}
		v := c.Victim()
		return v >= 0 && v < 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMultiQueueHottest(t *testing.T) {
	m, err := NewMultiQueue(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		m.Touch(100) // very hot page
	}
	m.Touch(200)
	m.Touch(300)
	hot, ok := m.Hottest()
	if !ok || hot != 100 {
		t.Fatalf("hottest = %d,%v, want 100", hot, ok)
	}
	if m.Count(100) != 16 {
		t.Fatalf("count(100) = %d", m.Count(100))
	}
}

func TestMultiQueuePromotion(t *testing.T) {
	m, _ := NewMultiQueue(3, 10)
	for i := 0; i < 4; i++ {
		m.Touch(2) // count 4 -> level 2
	}
	// Page 2 should outrank page 1 even if page 1 was touched later.
	m.Touch(1)
	m.Touch(1) // count 2 -> level 1, below page 2's level
	hot, _ := m.Hottest()
	if hot != 2 {
		t.Fatalf("hottest = %d, want promoted page 2", hot)
	}
}

func TestMultiQueueCapacityEviction(t *testing.T) {
	m, _ := NewMultiQueue(2, 3)
	// Insert more level-0 pages than capacity: oldest are evicted.
	for p := uint64(0); p < 10; p++ {
		m.Touch(p)
	}
	if m.Len() > 6 {
		t.Fatalf("tracker holds %d pages, capacity is 6", m.Len())
	}
	if m.Count(0) != 0 {
		t.Fatal("page 0 should have been evicted")
	}
}

func TestMultiQueueRemoveAndReset(t *testing.T) {
	m, _ := NewMultiQueue(3, 10)
	m.Touch(7)
	m.Remove(7)
	if _, ok := m.Hottest(); ok {
		t.Fatal("tracker should be empty after Remove")
	}
	m.Touch(8)
	m.Reset()
	if m.Len() != 0 {
		t.Fatal("tracker should be empty after Reset")
	}
}

func TestMultiQueueBitCost(t *testing.T) {
	m, _ := NewMultiQueue(3, 10)
	if m.BitCost() != 780 {
		t.Fatalf("bit cost = %d, want 780 (paper Section III-B)", m.BitCost())
	}
}

func TestMultiQueueShapeValidation(t *testing.T) {
	if _, err := NewMultiQueue(0, 10); err == nil {
		t.Fatal("zero levels accepted")
	}
	if _, err := NewMultiQueue(3, 0); err == nil {
		t.Fatal("zero entries accepted")
	}
}

// Property: Hottest always returns a tracked page, and the tracker never
// exceeds its capacity.
func TestMultiQueueInvariants(t *testing.T) {
	f := func(touches []uint8) bool {
		m, _ := NewMultiQueue(3, 4)
		for _, v := range touches {
			m.Touch(uint64(v) % 32)
		}
		if m.Len() > 12 {
			return false
		}
		if hot, ok := m.Hottest(); ok {
			return m.Count(hot) >= 1
		}
		return len(touches) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomVictimSkipsPinned(t *testing.T) {
	r, err := NewRandomVictim(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.Pin(0)
	r.Pin(1)
	r.Pin(2)
	for i := 0; i < 20; i++ {
		if v := r.Victim(); v != 3 {
			t.Fatalf("victim = %d, want 3 (only unpinned)", v)
		}
	}
	r.Pin(3)
	if v := r.Victim(); v != -1 {
		t.Fatalf("all pinned: victim = %d, want -1", v)
	}
}

func TestFIFOVictimRotates(t *testing.T) {
	f, err := NewFIFOVictim(3)
	if err != nil {
		t.Fatal(err)
	}
	f.Touch(0) // ignored: FIFO has no recency
	got := []int{f.Victim(), f.Victim(), f.Victim(), f.Victim()}
	want := []int{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation = %v, want %v", got, want)
		}
	}
	f.Pin(1)
	if v := f.Victim(); v == 1 {
		t.Fatal("pinned slot evicted")
	}
}

func TestVictimSelectorsValidate(t *testing.T) {
	if _, err := NewRandomVictim(0, 1); err == nil {
		t.Fatal("zero slots accepted")
	}
	if _, err := NewFIFOVictim(0); err == nil {
		t.Fatal("zero slots accepted")
	}
}

func TestVictimBitCosts(t *testing.T) {
	r, _ := NewRandomVictim(256, 1)
	f, _ := NewFIFOVictim(256)
	c, _ := NewClockPLRU(256)
	if r.BitCost() <= 0 || f.BitCost() != 8 || c.BitCost() != 256 {
		t.Fatalf("bit costs: random=%d fifo=%d clock=%d", r.BitCost(), f.BitCost(), c.BitCost())
	}
}

// TestMultiQueueIndexWalk drives random Touch, Remove and Reset calls over
// 80 pages, some strided so their probe runs collide, and checks after
// every call that each tracked node is found at its arena index and that
// the index holds exactly the tracked pages.
func TestMultiQueueIndexWalk(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pages := make([]uint64, 80)
		for i := range pages {
			if i%2 == 0 {
				pages[i] = uint64(i) << 20 // a 4 MiB-page stride
			} else {
				pages[i] = rng.Uint64()
			}
		}
		m, err := NewMultiQueue(3, 10)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 2000; step++ {
			page := pages[rng.Intn(len(pages))]
			switch k := rng.Intn(100); {
			case k < 80:
				m.Touch(page)
			case k < 99:
				m.Remove(page)
			default:
				m.Reset()
			}
			tracked := 0
			for l := range m.head {
				for i := m.head[l]; i != mqNil; i = m.nodes[i].next {
					tracked++
					if got := m.lookup(m.nodes[i].page); got != i {
						t.Fatalf("seed %d step %d: page %d at node %d, index finds node %d", seed, step, m.nodes[i].page, i, got)
					}
				}
			}
			indexed := 0
			for _, sl := range m.index {
				if sl.node == mqNil {
					continue
				}
				indexed++
				if n := m.nodes[sl.node]; n.page != sl.page {
					t.Fatalf("seed %d step %d: index maps page %d to node %d, which holds page %d", seed, step, sl.page, sl.node, n.page)
				}
			}
			if indexed != tracked || m.Len() != tracked {
				t.Fatalf("seed %d step %d: %d pages tracked, %d indexed, Len %d", seed, step, tracked, indexed, m.Len())
			}
		}
	}
}

// TestMultiQueueRestoreRejectsDuplicatePage: a checkpoint that lists one
// page twice does not restore.
func TestMultiQueueRestoreRejectsDuplicatePage(t *testing.T) {
	m, _ := NewMultiQueue(3, 10)
	m.Touch(5)
	m.Touch(6)
	m.nodes[m.lookup(6)].page = 5
	enc := snap.NewEncoder()
	m.Snap(enc.Section("mq"))
	data, err := enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := snap.NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dec.Section("mq")
	if err != nil {
		t.Fatal(err)
	}
	restored, _ := NewMultiQueue(3, 10)
	restored.Snap(st)
	if err := st.Err(); err == nil || !strings.Contains(err.Error(), "appears twice") {
		t.Fatalf("restore of a duplicated page: error %v, want \"appears twice\"", err)
	}
}
