package policy

import (
	"fmt"
	"math/bits"
)

// MultiQueue approximates MRU tracking for off-package macro pages with the
// multi-queue algorithm (Zhou et al., as adapted by Loh MICRO'09, cited by
// the paper): a small fixed number of LRU-ordered levels; a page is promoted
// to level floor(log2(accessCount)) capped at the top level. The hottest
// page is the most recently used entry of the highest occupied level.
//
// Capacity is bounded (levels x entriesPerLevel) like the hardware the paper
// sizes (3 levels x 10 entries = 78 bits x 10): when a level overflows, its
// least recently used entry is demoted one level; overflow out of level 0
// evicts the page from the tracker entirely.
//
// The per-level LRU lists are intrusive doubly-linked lists threaded through
// a fixed slice arena — the hardware's shape is a handful of registers, and
// mirroring that keeps the per-access hot path free of heap allocation
// (container/list allocated an element per insert). The page->node index is
// an open-addressed table sized at construction: a power of two at least
// twice the arena, linear probing, and backward-shift deletion, so a lookup
// is a multiply, a shift and a few adjacent compares.
type mqNode struct {
	page       uint64
	count      uint64
	level      int32
	prev, next int32 // arena indices; -1 terminates
}

// MultiQueue is the bounded multi-queue MRU tracker.
type MultiQueue struct {
	nodes      []mqNode
	head, tail []int32 // per level; head = LRU end, tail = MRU end
	sizes      []int32
	free       int32 // free-list head, linked through next
	index      []mqSlot
	indexShift uint // 64 - log2(len(index))
	perLevel   int
	bitsEntry  int
}

// mqSlot is one index entry; node is mqNil in an empty slot.
type mqSlot struct {
	page uint64
	node int32
}

const mqNil = int32(-1)

// NewMultiQueue returns a tracker with the given shape. The paper's
// configuration is NewMultiQueue(3, 10).
func NewMultiQueue(levels, entriesPerLevel int) (*MultiQueue, error) {
	if levels <= 0 || entriesPerLevel <= 0 {
		return nil, fmt.Errorf("policy: multi-queue shape %dx%d invalid", levels, entriesPerLevel)
	}
	// One node beyond capacity: an insert lands before the spill that
	// restores the bound, so the arena transiently holds capacity+1.
	arena := levels*entriesPerLevel + 1
	slotBits := bits.Len(uint(2*arena - 1))
	m := &MultiQueue{
		nodes:      make([]mqNode, arena),
		head:       make([]int32, levels),
		tail:       make([]int32, levels),
		sizes:      make([]int32, levels),
		index:      make([]mqSlot, 1<<slotBits),
		indexShift: uint(64 - slotBits),
		// The page ID (26 bits for a 48-bit space at 4 MB pages) dominates
		// the per-entry cost; 26 bits x 30 entries gives the 780-bit
		// figure the paper reports for the 3x10 multi-queue.
		perLevel:  entriesPerLevel,
		bitsEntry: 26,
	}
	m.initLinks()
	return m, nil
}

// initLinks empties every level and the index, and threads the whole arena
// onto the free list.
func (m *MultiQueue) initLinks() {
	for i := range m.index {
		m.index[i].node = mqNil
	}
	for l := range m.head {
		m.head[l], m.tail[l], m.sizes[l] = mqNil, mqNil, 0
	}
	for i := range m.nodes {
		m.nodes[i].next = int32(i) + 1
	}
	m.nodes[len(m.nodes)-1].next = mqNil
	m.free = 0
}

// home is page's first probe slot: Fibonacci hashing, whose top bits
// spread the strided page numbers of a sequential sweep.
func (m *MultiQueue) home(page uint64) int {
	return int(page * 0x9e3779b97f4a7c15 >> m.indexShift)
}

// lookup returns page's arena node, or mqNil when it is not tracked.
func (m *MultiQueue) lookup(page uint64) int32 {
	mask := len(m.index) - 1
	for i := m.home(page); ; i = (i + 1) & mask {
		if sl := m.index[i]; sl.node == mqNil || sl.page == page {
			return sl.node
		}
	}
}

// insert indexes an untracked page at arena node i.
func (m *MultiQueue) insert(page uint64, i int32) {
	mask := len(m.index) - 1
	k := m.home(page)
	for m.index[k].node != mqNil {
		k = (k + 1) & mask
	}
	m.index[k] = mqSlot{page: page, node: i}
}

// unindex drops a tracked page from the index. Each later entry of the
// probe run moves back into the hole when the hole lies between its home
// and its slot, so no lookup ever stops early at an emptied slot.
func (m *MultiQueue) unindex(page uint64) {
	mask := len(m.index) - 1
	hole := m.home(page)
	for m.index[hole].page != page || m.index[hole].node == mqNil {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; m.index[j].node != mqNil; j = (j + 1) & mask {
		if (j-m.home(m.index[j].page))&mask >= (j-hole)&mask {
			m.index[hole] = m.index[j]
			hole = j
		}
	}
	m.index[hole].node = mqNil
}

// alloc pops a node off the free list.
func (m *MultiQueue) alloc() int32 {
	i := m.free
	m.free = m.nodes[i].next
	return i
}

// release returns node i to the free list.
func (m *MultiQueue) release(i int32) {
	m.nodes[i].next = m.free
	m.free = i
}

// unlink removes node i from its level's list.
func (m *MultiQueue) unlink(i int32) {
	n := &m.nodes[i]
	if n.prev != mqNil {
		m.nodes[n.prev].next = n.next
	} else {
		m.head[n.level] = n.next
	}
	if n.next != mqNil {
		m.nodes[n.next].prev = n.prev
	} else {
		m.tail[n.level] = n.prev
	}
	m.sizes[n.level]--
}

// pushBack appends node i at level l's MRU end.
func (m *MultiQueue) pushBack(l int, i int32) {
	n := &m.nodes[i]
	n.level = int32(l)
	n.prev = m.tail[l]
	n.next = mqNil
	if m.tail[l] != mqNil {
		m.nodes[m.tail[l]].next = i
	} else {
		m.head[l] = i
	}
	m.tail[l] = i
	m.sizes[l]++
}

// Touch records an access to page, inserting or promoting it.
func (m *MultiQueue) Touch(page uint64) {
	if i := m.lookup(page); i != mqNil {
		n := &m.nodes[i]
		n.count++
		want := levelFor(n.count, len(m.head))
		if want != int(n.level) {
			m.unlink(i)
			m.pushBack(want, i)
			m.spill(want)
		} else if m.tail[n.level] != i {
			m.unlink(i)
			m.pushBack(int(n.level), i)
		}
		return
	}
	i := m.alloc()
	m.nodes[i].page = page
	m.nodes[i].count = 1
	m.insert(page, i)
	m.pushBack(0, i)
	m.spill(0)
}

// spill demotes the LRU entry of any overfull level, cascading downward.
func (m *MultiQueue) spill(level int) {
	for l := level; l >= 0; l-- {
		for int(m.sizes[l]) > m.perLevel {
			victim := m.head[l]
			m.unlink(victim)
			if l == 0 {
				m.unindex(m.nodes[victim].page)
				m.release(victim)
				continue
			}
			// Demoted entries land at the MRU end of the lower level so a
			// recently hot page is not immediately evicted outright.
			m.pushBack(l-1, victim)
		}
	}
}

func levelFor(count uint64, levels int) int {
	l := 0
	for c := count; c > 1 && l < levels-1; c >>= 1 {
		l++
	}
	return l
}

// Hottest returns the most recently used page of the highest occupied
// level, or ok=false if the tracker is empty.
func (m *MultiQueue) Hottest() (page uint64, ok bool) {
	for l := len(m.head) - 1; l >= 0; l-- {
		if t := m.tail[l]; t != mqNil {
			return m.nodes[t].page, true
		}
	}
	return 0, false
}

// Count returns the recorded access count for page (0 if untracked).
func (m *MultiQueue) Count(page uint64) uint64 {
	if i := m.lookup(page); i != mqNil {
		return m.nodes[i].count
	}
	return 0
}

// Remove drops page from the tracker (after it migrates on-package).
func (m *MultiQueue) Remove(page uint64) {
	if i := m.lookup(page); i != mqNil {
		m.unlink(i)
		m.unindex(page)
		m.release(i)
	}
}

// Reset clears all entries, starting a fresh monitoring epoch.
func (m *MultiQueue) Reset() { m.initLinks() }

// Len returns the number of tracked pages.
func (m *MultiQueue) Len() int {
	n := 0
	for _, s := range m.sizes {
		n += int(s)
	}
	return n
}

// BitCost returns the hardware cost in bits: page ID per entry times
// capacity, the accounting behind the paper's "size of multi-queue is 780
// bits" for 3 levels x 10 entries.
func (m *MultiQueue) BitCost() int { return m.bitsEntry * m.perLevel * len(m.head) }
