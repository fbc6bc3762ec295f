package core

import (
	"sort"

	"heteromem/internal/snap"
)

// SnapshotTo writes the table's full mutable state: the RAM direction,
// P bits, empty row, retirement state, exile map, and the P-bit transition
// counters. The CAM is derived state and is rebuilt on restore. Shape
// (slot count, total pages) is a construction input and is validated.
func (t *Table) SnapshotTo(e *snap.Encoder) {
	e.U64(t.n)
	e.U64(t.total)
	for _, r := range t.resident {
		e.U64(r)
	}
	for _, p := range t.pending {
		e.Bool(p)
	}
	e.I64(int64(t.emptyRow))
	for _, r := range t.retired {
		e.Bool(r)
	}
	// Index order over the dense array is ascending-page order, matching the
	// sorted-by-page framing the map-backed encoder always wrote.
	e.U32(uint32(t.exiledCount))
	for p, spare := range t.exiledTo {
		if spare != Empty {
			e.U64(uint64(p))
			e.U64(spare)
		}
	}
	e.U64(t.spares)
	e.U64(t.pendingSets)
	e.U64(t.pendingClears)
}

// RestoreFrom reads the state written by SnapshotTo into a table built
// with the same shape. P bits are written directly (not via SetPending)
// so the serialized transition counters restore exactly.
func (t *Table) RestoreFrom(d *snap.Decoder) error {
	n := d.U64()
	total := d.U64()
	if d.Err() != nil {
		return d.Err()
	}
	if n != t.n || total != t.total {
		d.Invalid("table shape is %dx%d, snapshot has %dx%d", t.n, t.total, n, total)
		return d.Err()
	}
	for i := range t.resident {
		t.resident[i] = d.U64()
	}
	for i := range t.pending {
		t.pending[i] = d.Bool()
	}
	t.emptyRow = int(d.I64())
	for i := range t.retired {
		t.retired[i] = d.Bool()
	}
	ne := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	for i := range t.exiledTo {
		t.exiledTo[i] = Empty
	}
	t.exiledCount = 0
	for i := 0; i < ne; i++ {
		p := d.U64()
		spare := d.U64()
		if d.Err() != nil {
			return d.Err()
		}
		if p >= t.n {
			d.Invalid("exiled page %d out of range", p)
			return d.Err()
		}
		if t.exiledTo[p] != Empty {
			d.Invalid("exiled page %d appears twice", p)
			return d.Err()
		}
		t.setExiled(p, spare)
	}
	t.spares = d.U64()
	t.pendingSets = d.U64()
	t.pendingClears = d.U64()
	if d.Err() != nil {
		return d.Err()
	}
	if t.emptyRow < -1 || t.emptyRow >= int(t.n) {
		d.Invalid("empty row %d out of range", t.emptyRow)
		return d.Err()
	}
	for p := range t.back {
		t.back[p] = noSlot
	}
	for s, r := range t.resident {
		if r != Empty && r >= t.n {
			t.back[r] = int32(s)
		}
	}
	return d.Err()
}

// snapshotTo writes a rollback snapshot (the table state at swap start).
func (ts *TableSnapshot) snapshotTo(e *snap.Encoder) {
	e.U32(uint32(len(ts.resident)))
	for _, r := range ts.resident {
		e.U64(r)
	}
	for _, p := range ts.pending {
		e.Bool(p)
	}
	e.I64(int64(ts.emptyRow))
}

// restoreTableSnapshot reads a rollback snapshot for a table with n slots.
func restoreTableSnapshot(d *snap.Decoder, n uint64) *TableSnapshot {
	ln := int(d.U32())
	if d.Err() != nil {
		return nil
	}
	if uint64(ln) != n {
		d.Invalid("rollback snapshot covers %d slots, table has %d", ln, n)
		return nil
	}
	ts := &TableSnapshot{
		resident: make([]uint64, ln),
		pending:  make([]bool, ln),
	}
	for i := range ts.resident {
		ts.resident[i] = d.U64()
	}
	for i := range ts.pending {
		ts.pending[i] = d.Bool()
	}
	ts.emptyRow = int(d.I64())
	if d.Err() != nil {
		return nil
	}
	return ts
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
	for p := range tmp.back {
		tmp.back[p] = noSlot
	}
	for s, r := range tmp.resident {
		if r != Empty && r >= tmp.n {
			tmp.back[r] = int32(s)
		}
	}
	return tmp
}

// SnapshotTo writes the migrator's dynamic state: the table, the hotness
// trackers, the epoch counters, the in-flight swap (rebuilt on restore from
// the swap-start snapshot, since plan steps carry closures), the live-fill
// state, and the activity counters. Options and geometry are construction
// inputs.
func (m *Migrator) SnapshotTo(e *snap.Encoder) {
	m.table.SnapshotTo(e)
	m.mq.SnapshotTo(e)
	m.clock.SnapshotTo(e)

	e.U32(uint32(len(m.slotCount)))
	for _, c := range m.slotCount {
		e.U32(c)
	}
	e.Bool(m.naive != nil)
	if m.naive != nil {
		// Only this epoch's touched pages can be non-zero; sort them so the
		// framing matches the sorted-map encoding exactly.
		pages := make([]uint64, 0, len(m.naiveDirty))
		for _, p := range m.naiveDirty {
			if m.naive[p] != 0 {
				pages = append(pages, p)
			}
		}
		sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
		e.U32(uint32(len(pages)))
		for _, p := range pages {
			e.U64(p)
			e.U32(m.naive[p])
		}
	}
	nls := 0
	for _, s := range m.lastSub {
		if s >= 0 {
			nls++
		}
	}
	e.U32(uint32(nls))
	for p, s := range m.lastSub {
		if s >= 0 {
			e.U64(uint64(p))
			e.U32(uint32(s))
		}
	}
	e.U64(m.sinceTick)
	e.Bool(m.degraded)

	e.Bool(m.plan != nil)
	if m.plan != nil {
		e.U64(m.plan.MRU)
		e.I64(int64(m.plan.Victim))
		e.U32(uint32(m.stepIdx))
		e.U32(uint32(len(m.plan.Steps)))
		e.Bool(m.rollback)
		m.snap.snapshotTo(e)
	}

	e.Bool(m.fill.active)
	if m.fill.active {
		e.U64(m.fill.phys)
		e.U64(m.fill.dstSlot)
		e.U64(m.fill.old)
		e.U32(uint32(len(m.fill.done)))
		for _, b := range m.fill.done {
			e.Bool(b)
		}
	}

	e.U64(m.stats.Epochs)
	e.U64(m.stats.SwapsStarted)
	e.U64(m.stats.SwapsCompleted)
	e.U64(m.stats.TriggersBlocked)
	e.U64(m.stats.TriggersCold)
	e.U64(m.stats.PagesCopied)
	e.U64(m.stats.BytesCopied)
	e.U64(m.stats.LiveEarlyHits)
	e.U64(m.stats.SwapsRolledBack)
	e.U64(m.stats.SlotsRetired)
}

// RestoreFrom reads the state written by SnapshotTo into a migrator built
// with the same options. An in-flight swap's plan is rebuilt by running the
// design's plan builder against the table rewound to the serialized
// swap-start snapshot, which reproduces the original steps exactly (the
// builders are deterministic functions of that state).
func (m *Migrator) RestoreFrom(d *snap.Decoder) error {
	if err := m.table.RestoreFrom(d); err != nil {
		return err
	}
	if err := m.mq.RestoreFrom(d); err != nil {
		return err
	}
	if err := m.clock.RestoreFrom(d); err != nil {
		return err
	}

	nc := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	if nc != len(m.slotCount) {
		d.Invalid("migrator tracks %d slots, snapshot has %d", len(m.slotCount), nc)
		return d.Err()
	}
	for i := range m.slotCount {
		m.slotCount[i] = d.U32()
	}
	hasNaive := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if hasNaive != (m.naive != nil) {
		d.Invalid("naive-MRU tracker presence mismatch")
		return d.Err()
	}
	if hasNaive {
		nn := int(d.U32())
		if d.Err() != nil {
			return d.Err()
		}
		for i := range m.naive {
			m.naive[i] = 0
		}
		m.naiveDirty = m.naiveDirty[:0]
		for i := 0; i < nn; i++ {
			p := d.U64()
			c := d.U32()
			if d.Err() != nil {
				return d.Err()
			}
			if p >= uint64(len(m.naive)) {
				d.Invalid("naive-MRU page %d out of range", p)
				return d.Err()
			}
			if m.naive[p] == 0 && c != 0 {
				m.naiveDirty = append(m.naiveDirty, p)
			}
			m.naive[p] = c
		}
	}
	ns := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	for i := range m.lastSub {
		m.lastSub[i] = -1
	}
	for i := 0; i < ns; i++ {
		p := d.U64()
		s := d.U32()
		if d.Err() != nil {
			return d.Err()
		}
		if p >= uint64(len(m.lastSub)) {
			d.Invalid("lastSub page %d out of range", p)
			return d.Err()
		}
		m.lastSub[p] = int32(s)
	}
	m.sinceTick = d.U64()
	m.degraded = d.Bool()

	hasPlan := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	m.plan, m.snap, m.stepIdx, m.rollback = nil, nil, 0, false
	if hasPlan {
		mru := d.U64()
		victim := int(d.I64())
		stepIdx := int(d.U32())
		nsteps := int(d.U32())
		rollback := d.Bool()
		ts := restoreTableSnapshot(d, m.table.Slots())
		if d.Err() != nil {
			return d.Err()
		}
		var (
			plan *Plan
			err  error
		)
		if m.opt.Design == DesignN {
			plan, err = BuildPlanN(m.table.rewoundTo(ts), mru, victim)
		} else {
			plan, err = BuildPlanN1(m.table.rewoundTo(ts), mru, victim)
		}
		if err != nil {
			d.Invalid("cannot rebuild swap plan for page %d, victim %d: %v", mru, victim, err)
			return d.Err()
		}
		if len(plan.Steps) != nsteps {
			d.Invalid("rebuilt plan has %d steps, snapshot recorded %d", len(plan.Steps), nsteps)
			return d.Err()
		}
		if stepIdx < 0 || stepIdx >= nsteps {
			d.Invalid("swap step index %d out of range (%d steps)", stepIdx, nsteps)
			return d.Err()
		}
		m.plan, m.snap, m.stepIdx, m.rollback = plan, ts, stepIdx, rollback
		m.scratch = ts // recycle the restored snapshot's buffers for later swaps
	}
	// The pinned empty row is derived state: the last repin ran before the
	// in-flight swap started, so it pinned the swap-start empty row; with
	// no swap in flight it pinned the table's current one.
	m.pinnedEmpty = m.table.EmptyRow()
	if m.snap != nil {
		m.pinnedEmpty = m.snap.emptyRow
	}

	m.fill.active = d.Bool()
	m.fill.phys, m.fill.dstSlot, m.fill.old, m.fill.done = 0, 0, 0, nil
	if d.Err() != nil {
		return d.Err()
	}
	if m.fill.active {
		m.fill.phys = d.U64()
		m.fill.dstSlot = d.U64()
		m.fill.old = d.U64()
		nd := int(d.U32())
		if d.Err() != nil {
			return d.Err()
		}
		if nd != m.SubBlocksPerPage() {
			d.Invalid("fill bitmap has %d bits, page has %d sub-blocks", nd, m.SubBlocksPerPage())
			return d.Err()
		}
		m.fill.done = make([]bool, nd)
		for i := range m.fill.done {
			m.fill.done[i] = d.Bool()
		}
	}

	m.stats.Epochs = d.U64()
	m.stats.SwapsStarted = d.U64()
	m.stats.SwapsCompleted = d.U64()
	m.stats.TriggersBlocked = d.U64()
	m.stats.TriggersCold = d.U64()
	m.stats.PagesCopied = d.U64()
	m.stats.BytesCopied = d.U64()
	m.stats.LiveEarlyHits = d.U64()
	m.stats.SwapsRolledBack = d.U64()
	m.stats.SlotsRetired = d.U64()
	return d.Err()
}
