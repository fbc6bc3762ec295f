package policy

import "heteromem/internal/snap"

// Snapshot methods for the policy trackers. Shapes (slot counts, level
// counts, capacities) are construction inputs; restore targets must be
// built with the same shape, and the snapshot's dimensions are validated
// against it.

// snapBits carries a packed bitmap of n bits with the framing of
// snap.Stream.Bools, so the on-disk format is unchanged by the bitmap
// layout.
func snapBits(s *snap.Stream, w []uint64, n int) {
	s.Shape(n, "clock bitmap")
	for i := 0; i < n; i++ {
		b := bitGet(w, i)
		s.Bool(&b)
		bitSet(w, i, b)
	}
}

// Snap carries the reference bits, pin bits, and clock hand.
func (c *ClockPLRU) Snap(s *snap.Stream) {
	snapBits(s, c.ref, c.n)
	snapBits(s, c.pinned, c.n)
	snap.Uint32(s, &c.hand)
	if c.hand >= c.n {
		s.Invalid("clock hand %d out of range", c.hand)
	}
}

// Snap carries the PRNG state and pin bits.
func (r *RandomVictim) Snap(s *snap.Stream) {
	state := r.prng.State()
	s.U64(&state)
	r.prng.SetState(state)
	s.Bools(r.pinned)
}

// Snap carries the rotation hand and pin bits.
func (f *FIFOVictim) Snap(s *snap.Stream) {
	snap.Uint32(s, &f.hand)
	s.Bools(f.pinned)
	if f.hand >= len(f.pinned) {
		s.Invalid("fifo hand %d out of range", f.hand)
	}
}

// mqEntryBytes is the wire size of one multi-queue entry (page, count).
const mqEntryBytes = 8 + 8

// Snap carries every tracked entry, level by level in LRU-to-MRU order, so
// the lists and the index rebuild exactly.
func (m *MultiQueue) Snap(s *snap.Stream) {
	s.Shape(len(m.head), "multi-queue levels")
	if s.Reading() {
		m.Reset()
	}
	for l := range m.head {
		n := s.Len(int(m.sizes[l]), mqEntryBytes)
		if s.Reading() {
			if n > m.perLevel {
				s.Invalid("multi-queue level %d holds %d entries, capacity %d", l, n, m.perLevel)
				return
			}
			for range n {
				m.pushBack(l, m.alloc())
			}
		}
		for i := m.head[l]; i != mqNil; i = m.nodes[i].next {
			nd := &m.nodes[i]
			s.U64(&nd.page)
			s.U64(&nd.count)
			if !s.Reading() || s.Err() != nil {
				continue
			}
			if m.lookup(nd.page) != mqNil {
				s.Invalid("multi-queue page %d appears twice", nd.page)
				return
			}
			m.insert(nd.page, i)
		}
	}
}
