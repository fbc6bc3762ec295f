package core

import "heteromem/internal/snap"

// Snap carries the table's full mutable state: the RAM direction, P bits,
// empty row, retirement state, exile map, and the P-bit transition
// counters. The CAM is derived state and is rebuilt on restore. Shape
// (slot count, total pages) is a construction input and is validated. P
// bits are written directly (not via SetPending) so the serialized
// transition counters restore exactly.
func (t *Table) Snap(s *snap.Stream) {
	n, total := t.n, t.total
	s.U64(&n)
	s.U64(&total)
	if s.Err() == nil && (n != t.n || total != t.total) {
		s.Invalid("table shape is %dx%d, snapshot has %dx%d", t.n, t.total, n, total)
		return
	}
	for i := range t.resident {
		s.U64(&t.resident[i])
	}
	for i := range t.pending {
		s.Bool(&t.pending[i])
	}
	snap.Int64(s, &t.emptyRow)
	for i := range t.retired {
		s.Bool(&t.retired[i])
	}
	snap.Sparse(s, "exiled page", t.exiledTo, Empty, snap.Int64[int], (*snap.Stream).U64)
	s.U64(&t.spares)
	s.U64(&t.pendingSets)
	s.U64(&t.pendingClears)
	if !s.Reading() || s.Err() != nil {
		return
	}
	if t.emptyRow < -1 || t.emptyRow >= int(t.n) {
		s.Invalid("empty row %d out of range", t.emptyRow)
		return
	}
	if !residentsInRange(s, t.resident, t.total) {
		return
	}
	t.exiledCount = 0
	for _, spare := range t.exiledTo {
		if spare != Empty {
			t.exiledCount++
		}
	}
	t.reindex()
}

// residentsInRange rejects a restored RAM direction naming a page outside
// the total page space, which the CAM rebuild would index out of range.
func residentsInRange(s *snap.Stream, resident []uint64, total uint64) bool {
	for slot, r := range resident {
		if r != Empty && r >= total {
			s.Invalid("slot %d holds page %d beyond the %d-page space", slot, r, total)
			return false
		}
	}
	return true
}

// reindex rebuilds the CAM from the RAM direction.
func (t *Table) reindex() {
	for p := range t.back {
		t.back[p] = noSlot
	}
	for s, r := range t.resident {
		if r != Empty && r >= t.n {
			t.back[r] = int32(s)
		}
	}
}

// snap carries a rollback snapshot (the table state at swap start) of t.
func (ts *TableSnapshot) snap(s *snap.Stream, t *Table) {
	if s.Reading() {
		ts.resident = make([]uint64, t.n)
		ts.pending = make([]bool, t.n)
	}
	s.Shape(len(ts.resident), "rollback snapshot slots")
	for i := range ts.resident {
		s.U64(&ts.resident[i])
	}
	for i := range ts.pending {
		s.Bool(&ts.pending[i])
	}
	snap.Int64(s, &ts.emptyRow)
	if !s.Reading() || s.Err() != nil || !residentsInRange(s, ts.resident, t.total) {
		return
	}
	if ts.emptyRow < -1 || ts.emptyRow >= int(t.n) {
		s.Invalid("rollback empty row %d out of range", ts.emptyRow)
	}
}

// rewoundTo builds a detached read-only view of the table as it stood at
// swap start: the snapshot's translation state over the current retirement
// state (retirements never happen mid-swap). Plan builders run against this
// view so a restored swap rebuilds the exact steps the original run built.
func (t *Table) rewoundTo(ts *TableSnapshot) *Table {
	tmp := &Table{
		n:           t.n,
		total:       t.total,
		resident:    append([]uint64(nil), ts.resident...),
		pending:     append([]bool(nil), ts.pending...),
		back:        make([]int32, t.total),
		emptyRow:    ts.emptyRow,
		retired:     t.retired,
		exiledTo:    t.exiledTo,
		exiledCount: t.exiledCount,
		spares:      t.spares,
	}
	tmp.reindex()
	return tmp
}

// Snap carries one sub-block copy leg.
func (c *SubCopy) Snap(s *snap.Stream) {
	s.U64(&c.Src)
	s.U64(&c.Dst)
	s.U64(&c.Bytes)
	snap.Int64(s, &c.SubIndex)
	s.Bool(&c.Exchange)
}

// Snap carries the migrator's dynamic state: the table, the hotness
// trackers, the epoch counters, the in-flight swap (rebuilt on restore from
// the swap-start snapshot, which keeps the pinned checkpoint format free of
// plan steps), the live-fill state, and the activity counters. Options and
// geometry are construction inputs.
func (m *Migrator) Snap(s *snap.Stream) {
	if s.Reading() {
		m.forget()
	}
	m.table.Snap(s)
	m.mq.Snap(s)
	m.clock.Snap(s)

	s.Shape(len(m.slotCount), "migrator slot counts")
	for i := range m.slotCount {
		s.U32(&m.slotCount[i])
	}
	if s.Present(m.naive != nil, "naive-MRU tracker") {
		// Only this epoch's touched pages can be non-zero, so the restored
		// dirty list is the non-zero pages, in ascending order.
		snap.Sparse(s, "naive-MRU page", m.naive, 0, snap.Int64[int], (*snap.Stream).U32)
		if s.Reading() {
			m.naiveDirty = m.naiveDirty[:0]
			for p, c := range m.naive {
				if c != 0 {
					m.naiveDirty = append(m.naiveDirty, uint64(p))
				}
			}
		}
	}
	snap.Sparse(s, "lastSub page", m.lastSub, -1, snap.Int64[int], snap.Uint32[int32])
	s.U64(&m.sinceTick)
	s.Bool(&m.degraded)

	m.snapSwap(s)
	// The pinned empty row is derived state: the last repin ran before the
	// in-flight swap started, so it pinned the swap-start empty row; with
	// no swap in flight it pinned the table's current one.
	if s.Reading() {
		m.pinnedEmpty = m.table.EmptyRow()
		if m.snap != nil {
			m.pinnedEmpty = m.snap.emptyRow
		}
	}

	s.Bool(&m.fill.active)
	if s.Reading() {
		m.fill.phys, m.fill.dstSlot, m.fill.old, m.fill.done = 0, 0, 0, nil
	}
	if m.fill.active {
		s.U64(&m.fill.phys)
		s.U64(&m.fill.dstSlot)
		s.U64(&m.fill.old)
		if s.Reading() {
			m.fill.done = make([]bool, m.SubBlocksPerPage())
		}
		s.Bools(m.fill.done)
	}

	for _, c := range []*uint64{
		&m.stats.Epochs, &m.stats.SwapsStarted, &m.stats.SwapsCompleted,
		&m.stats.TriggersBlocked, &m.stats.TriggersCold, &m.stats.PagesCopied,
		&m.stats.BytesCopied, &m.stats.LiveEarlyHits, &m.stats.SwapsRolledBack,
		&m.stats.SlotsRetired,
	} {
		s.U64(c)
	}
}

// snapSwap carries the in-flight swap. A restored swap's plan is rebuilt by
// running the design's plan builder against the table rewound to the
// serialized swap-start snapshot, which reproduces the original steps
// exactly (the builders are deterministic functions of that state).
func (m *Migrator) snapSwap(s *snap.Stream) {
	inFlight := m.plan != nil
	s.Bool(&inFlight)
	if s.Reading() {
		m.plan, m.snap, m.stepIdx, m.rollback = nil, nil, 0, false
	}
	if !inFlight {
		return
	}
	var (
		mru                     uint64
		victim, stepIdx, nsteps int
		rollback                bool
		ts                      = new(TableSnapshot)
	)
	if !s.Reading() {
		mru, victim, stepIdx, nsteps = m.plan.MRU, m.plan.Victim, m.stepIdx, len(m.plan.Steps)
		rollback, ts = m.rollback, m.snap
	}
	s.U64(&mru)
	snap.Int64(s, &victim)
	snap.Uint32(s, &stepIdx)
	snap.Uint32(s, &nsteps)
	s.Bool(&rollback)
	ts.snap(s, m.table)
	if !s.Reading() || s.Err() != nil {
		return
	}
	plan, err := m.buildPlan(m.table.rewoundTo(ts), mru, victim)
	switch {
	case err != nil:
		s.Invalid("cannot rebuild swap plan for page %d, victim %d: %v", mru, victim, err)
	case len(plan.Steps) != nsteps:
		s.Invalid("rebuilt plan has %d steps, snapshot recorded %d", len(plan.Steps), nsteps)
	case stepIdx < 0 || stepIdx >= nsteps:
		s.Invalid("swap step index %d out of range (%d steps)", stepIdx, nsteps)
	default:
		m.plan, m.snap, m.stepIdx, m.rollback = plan, ts, stepIdx, rollback
		m.scratch = ts // recycle the restored snapshot's buffers for later swaps
	}
}
