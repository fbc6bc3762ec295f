package core

import (
	"fmt"
	"strings"

	"heteromem/internal/addr"
	"heteromem/internal/policy"
)

// Design selects the migration algorithm of Section III-A.
type Design int

// The three evaluated designs.
const (
	DesignN    Design = iota // basic: all N slots used, swap stalls execution
	DesignN1                 // one slot sacrificed, P bit hides swap latency
	DesignLive               // N-1 plus F bit + sub-block bitmap (critical-data-first)
)

// String names the design the way the paper's figures do.
func (d Design) String() string {
	switch d {
	case DesignN:
		return "N"
	case DesignN1:
		return "N-1"
	case DesignLive:
		return "Live"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// Validate rejects a design other than N, N-1 and Live: the plan builder
// and the translation table would run any other value as N-1.
func (d Design) Validate() error {
	switch d {
	case DesignN, DesignN1, DesignLive:
		return nil
	}
	return fmt.Errorf("core: unknown migration design %v (want N, N-1 or Live)", d)
}

// ParseDesign maps a design name, in any letter case, to its design: n,
// n-1 (or n1), live, or none (or static), for which migrates is false.
func ParseDesign(name string) (d Design, migrates bool, err error) {
	switch strings.ToLower(name) {
	case "n":
		return DesignN, true, nil
	case "n-1", "n1":
		return DesignN1, true, nil
	case "live":
		return DesignLive, true, nil
	case "none", "static":
		return DesignN, false, nil
	}
	return DesignN, false, fmt.Errorf("core: unknown design %q (want n, n-1, live, or none)", name)
}

// Options configures a Migrator.
type Options struct {
	Design       Design
	Slots        uint64 // N: on-package macro-page slots
	TotalPages   uint64 // macro pages covering the whole memory space
	PageSize     uint64 // macro-page size in bytes
	SubBlockSize uint64 // live-migration sub-block (Table III: 4 KB)
	SwapInterval uint64 // memory accesses per monitoring epoch
	MQLevels     int    // multi-queue shape; zero selects the paper's 3
	MQPerLevel   int    // zero selects the paper's 10
	NaiveMRU     bool   // ablation: replace the multi-queue with a plain per-epoch counter

	// NoCriticalFirst (ablation) starts live-migration copies at sub-block
	// 0 instead of the MRU sub-block, isolating the critical-data-first
	// contribution.
	NoCriticalFirst bool

	// Victim selects the on-package victim policy: the paper's clock
	// pseudo-LRU by default, or an ablation alternative.
	Victim VictimPolicy
}

// VictimPolicy selects how the coldest on-package slot is found.
type VictimPolicy int

// Victim policies.
const (
	VictimClockPLRU VictimPolicy = iota // the paper's design (default)
	VictimRandom                        // ablation: LFSR victim
	VictimFIFO                          // ablation: rotation victim
)

// String names the policy.
func (v VictimPolicy) String() string {
	switch v {
	case VictimClockPLRU:
		return "clock-plru"
	case VictimRandom:
		return "random"
	case VictimFIFO:
		return "fifo"
	default:
		return fmt.Sprintf("VictimPolicy(%d)", int(v))
	}
}

// SubCopy is one sub-block leg of the current step, in machine byte
// addresses (the simulator turns these into bus transfers).
type SubCopy struct {
	Src      uint64
	Dst      uint64
	Bytes    uint64
	SubIndex int  // index within the page (for live bitmap updates)
	Exchange bool // traffic flows both ways
}

// Stats counts migrator activity.
type Stats struct {
	Epochs          uint64
	SwapsStarted    uint64
	SwapsCompleted  uint64
	TriggersBlocked uint64 // epoch wanted to swap but one was in flight
	TriggersCold    uint64 // epoch ended with MRU not hotter than LRU
	PagesCopied     uint64
	BytesCopied     uint64
	LiveEarlyHits   uint64 // accesses served on-package thanks to the fill bitmap
	SwapsRolledBack uint64 // swaps aborted and unwound after fault-retry exhaustion
	SlotsRetired    uint64 // on-package slots taken out of service
}

// Merge folds another migrator's statistics into s (every field is a
// monotonic count, so the machine-wide view of per-channel migrators is
// their field-wise sum).
func (s *Stats) Merge(other Stats) {
	s.Epochs += other.Epochs
	s.SwapsStarted += other.SwapsStarted
	s.SwapsCompleted += other.SwapsCompleted
	s.TriggersBlocked += other.TriggersBlocked
	s.TriggersCold += other.TriggersCold
	s.PagesCopied += other.PagesCopied
	s.BytesCopied += other.BytesCopied
	s.LiveEarlyHits += other.LiveEarlyHits
	s.SwapsRolledBack += other.SwapsRolledBack
	s.SlotsRetired += other.SlotsRetired
}

// Migrator is the migration controller of Fig. 3: it owns the translation
// table, the hotness trackers, and the in-flight swap state, and hands the
// simulator the copy traffic to execute.
type Migrator struct {
	opt   Options
	geom  addr.PageGeom
	table *Table
	mq    *policy.MultiQueue
	clock policy.VictimSelector
	// pinnedEmpty is the empty row the victim selector has pinned, -1 for
	// none. Apart from retired slots it is the only pinned slot, so a
	// repin touches just this row and the table's current empty row.
	pinnedEmpty int

	slotCount []uint32 // per-slot access counts for the current epoch
	// naive (ablation) is a dense per-page counter plus the list of pages
	// touched this epoch, so an epoch reset clears only what was dirtied
	// instead of rehashing a map.
	naive      []uint32
	naiveDirty []uint64
	// lastSub[p] is the last accessed sub-block of off-package page p
	// (critical-first seed), -1 when untouched. Dense so the per-access
	// update is one indexed store instead of a map insert.
	lastSub   []int32
	sinceTick uint64

	plan    *Plan
	stepIdx int

	snap     *TableSnapshot // table state at swap start, for rollback
	scratch  *TableSnapshot // recycled snapshot buffers (snap aliases it mid-swap)
	rollback bool           // in-flight swap is being unwound
	degraded bool           // migration frozen; current mapping is final

	fill struct {
		active  bool
		phys    uint64 // MRU physical page being filled
		dstSlot uint64 // destination machine page (on-package slot)
		old     uint64 // machine page of the still-valid stale copy
		done    []bool
	}

	// hit is the table translation Translate last made, page to machine
	// page, kept for the OnAccess of the same access. Its page is noPage
	// when there is none: after the live-fill path, which the table does not
	// decide, and after anything that changes the table or the fill state.
	hit struct{ page, machine uint64 }

	stats Stats
}

// noPage is the hit page that matches no page: page numbers are addresses
// shifted right by the page offset bits, so none is all ones.
const noPage = ^uint64(0)

// NewMigrator validates opt and builds the controller with the identity
// initial mapping (lowest memory on-package).
func NewMigrator(opt Options) (*Migrator, error) {
	if err := opt.Design.Validate(); err != nil {
		return nil, err
	}
	if opt.SwapInterval == 0 {
		return nil, fmt.Errorf("core: swap interval must be positive")
	}
	if opt.SubBlockSize == 0 || opt.PageSize%opt.SubBlockSize != 0 {
		return nil, fmt.Errorf("core: page size %d not a multiple of sub-block %d", opt.PageSize, opt.SubBlockSize)
	}
	g, err := addr.NewPageGeom(opt.PageSize)
	if err != nil {
		return nil, err
	}
	table, err := NewTable(opt.Slots, opt.TotalPages, opt.Design != DesignN)
	if err != nil {
		return nil, err
	}
	levels, per := opt.MQLevels, opt.MQPerLevel
	if levels == 0 {
		levels = 3
	}
	if per == 0 {
		per = 10
	}
	mq, err := policy.NewMultiQueue(levels, per)
	if err != nil {
		return nil, err
	}
	var clock policy.VictimSelector
	switch opt.Victim {
	case VictimClockPLRU:
		clock, err = policy.NewClockPLRU(int(opt.Slots))
	case VictimRandom:
		clock, err = policy.NewRandomVictim(int(opt.Slots), 0x5eed)
	case VictimFIFO:
		clock, err = policy.NewFIFOVictim(int(opt.Slots))
	default:
		return nil, fmt.Errorf("core: unknown victim policy %v", opt.Victim)
	}
	if err != nil {
		return nil, err
	}
	m := &Migrator{
		opt:         opt,
		geom:        g,
		table:       table,
		mq:          mq,
		clock:       clock,
		pinnedEmpty: -1,
		slotCount:   make([]uint32, opt.Slots),
		lastSub:     make([]int32, opt.TotalPages),
	}
	m.hit.page = noPage
	for i := range m.lastSub {
		m.lastSub[i] = -1
	}
	if opt.NaiveMRU {
		m.naive = make([]uint32, opt.TotalPages)
	}
	m.repinSlots()
	return m, nil
}

// Table exposes the translation table (read-mostly; tests and reports).
func (m *Migrator) Table() *Table { return m.table }

// Stats returns a copy of the activity counters.
func (m *Migrator) Stats() Stats { return m.stats }

// Epochs returns the epoch count alone, without copying the whole Stats
// struct — the controller compares it around every EpochTick, so this sits
// on the per-access hot path.
func (m *Migrator) Epochs() uint64 { return m.stats.Epochs }

// Design returns the configured migration design.
func (m *Migrator) Design() Design { return m.opt.Design }

// SubBlocksPerPage returns the live-migration bitmap width.
func (m *Migrator) SubBlocksPerPage() int { return int(m.opt.PageSize / m.opt.SubBlockSize) }

// Translate maps a physical byte address to (machine byte address,
// onPackage). It layers the live-migration sub-block routing over the
// table translation and costs the paper's 2-cycle RAM+CAM lookup (charged
// by the controller, not here).
func (m *Migrator) Translate(phys uint64) (machine uint64, onPackage bool) {
	p := m.geom.PageOf(phys)
	off := m.geom.OffsetOf(phys)
	if m.fill.active && p == m.fill.phys {
		m.hit.page = noPage
		sub := int(off / m.opt.SubBlockSize)
		if m.fill.done[sub] {
			m.stats.LiveEarlyHits++
			return m.geom.Join(m.fill.dstSlot, off), true
		}
		return m.geom.Join(m.fill.old, off), false
	}
	mp, on := m.table.MachinePage(p)
	m.hit.page, m.hit.machine = p, mp
	return m.geom.Join(mp, off), on
}

// forget drops the translation kept for OnAccess; everything that changes
// the table or the live-fill state calls it.
func (m *Migrator) forget() { m.hit.page = noPage }

// OnAccess feeds one program access into the hotness trackers. onPackage
// must be the routing Translate returned for the same access. The machine
// page Translate resolved for that access is reused, so a controller pays
// one table lookup per access; a page Translate did not resolve last (or
// resolved through the live-fill bitmap) is looked up again.
func (m *Migrator) OnAccess(phys uint64, onPackage bool) {
	if m.degraded {
		return // mapping is frozen; hotness tracking is pointless
	}
	p := m.geom.PageOf(phys)
	if p >= m.table.total {
		return // reserved pages are not tracked
	}
	mp := m.hit.machine
	if p != m.hit.page {
		mp, _ = m.table.MachinePage(p)
	}
	if mp > m.table.Omega() {
		// Only an exiled page translates past Ω, to its spare frame; it can
		// never re-promote (its slot is dead).
		return
	}
	if onPackage {
		if m.fill.active && p == m.fill.phys {
			mp = m.fill.dstSlot
		}
		if mp < m.table.Slots() {
			m.clock.Touch(int(mp))
			m.slotCount[mp]++
		}
		return
	}
	if m.naive != nil {
		if m.naive[p] == 0 {
			m.naiveDirty = append(m.naiveDirty, p)
		}
		m.naive[p]++
	} else {
		m.mq.Touch(p)
	}
	m.lastSub[p] = int32(m.geom.OffsetOf(phys) / m.opt.SubBlockSize)
}

// EpochTick advances the epoch counter by one access; when the swap
// interval elapses it evaluates the hottest-coldest trigger and, if a swap
// starts, returns the first step's sub-copies. A nil slice means no swap
// started this access.
func (m *Migrator) EpochTick() []SubCopy {
	if m.degraded {
		return nil
	}
	m.sinceTick++
	if m.sinceTick < m.opt.SwapInterval {
		return nil
	}
	return m.endEpoch()
}

// endEpoch is EpochTick at an epoch's end, kept apart so the per-access
// count inlines into the caller.
func (m *Migrator) endEpoch() []SubCopy {
	m.sinceTick = 0
	m.stats.Epochs++

	if m.plan != nil {
		// "The existence of P bit and F bit prevents triggering another
		// swap if the previous swap is not complete yet."
		m.stats.TriggersBlocked++
		m.resetEpochCounts()
		return nil
	}

	if !m.CanSwap() {
		// The empty row was retired; the N-1/Live designs have no room left.
		m.resetEpochCounts()
		return nil
	}

	mru, hot, ok := m.hottest()
	if !ok {
		m.resetEpochCounts()
		return nil
	}
	victim := m.clock.Victim()
	if victim < 0 {
		m.resetEpochCounts()
		return nil
	}
	// The MRU must be hotter than the page the swap evicts. That is the
	// victim's, except that the N design restores an MS MRU by exchanging
	// it with its partner, the page in the MRU's own slot.
	evict := victim
	if m.opt.Design == DesignN && m.table.Classify(mru) == MigratedSlow {
		evict = int(mru)
	}
	if uint64(hot) <= uint64(m.slotCount[evict]) {
		m.stats.TriggersCold++
		m.resetEpochCounts()
		return nil
	}

	plan, err := m.buildPlan(m.table, mru, victim)
	if err != nil {
		// Non-promotable corner (e.g. the page migrated in the same epoch);
		// skip this epoch rather than wedging the controller.
		m.resetEpochCounts()
		return nil
	}
	m.plan = plan
	m.stepIdx = 0
	// Rollback point if the swap must abort. The scratch snapshot is
	// recycled across swaps (a new swap only starts once the previous
	// one's snap is cleared), so steady-state swapping allocates nothing
	// here.
	m.scratch = m.table.SnapshotInto(m.scratch)
	m.snap = m.scratch
	m.stats.SwapsStarted++
	m.resetEpochCounts()
	return m.startStep()
}

// buildPlan runs the design's plan builder over table t.
func (m *Migrator) buildPlan(t *Table, mru uint64, victim int) (*Plan, error) {
	if m.opt.Design == DesignN {
		return BuildPlanN(t, mru, victim)
	}
	return BuildPlanN1(t, mru, victim)
}

// resetEpochCounts starts a fresh monitoring epoch: the controller compares
// hotness "during the last period of execution", so both the per-slot
// counters and the off-package trackers reset at every epoch boundary.
func (m *Migrator) resetEpochCounts() {
	for i := range m.slotCount {
		m.slotCount[i] = 0
	}
	if m.naive != nil {
		for _, p := range m.naiveDirty {
			m.naive[p] = 0
		}
		m.naiveDirty = m.naiveDirty[:0]
	} else {
		m.mq.Reset()
	}
}

// hottest returns the off-package MRU page and its heat.
func (m *Migrator) hottest() (page uint64, heat uint32, ok bool) {
	if m.naive != nil {
		var best uint64
		var bestC uint32
		for _, p := range m.naiveDirty {
			c := m.naive[p]
			if c > bestC || (c == bestC && c > 0 && p < best) {
				best, bestC = p, c
			}
		}
		return best, bestC, bestC > 0
	}
	p, ok := m.mq.Hottest()
	if !ok {
		return 0, 0, false
	}
	c := m.mq.Count(p)
	if c > uint32max {
		c = uint32max
	}
	return p, uint32(c), true
}

const uint32max = 1<<32 - 1

// SwapInFlight reports whether a swap is executing.
func (m *Migrator) SwapInFlight() bool { return m.plan != nil }

// CurrentPlan describes the in-flight swap for observers: the physical
// page being promoted, the victim slot, the current step index, and the
// total step count. ok is false when no swap is in flight.
func (m *Migrator) CurrentPlan() (mru uint64, victim int, step, steps int, ok bool) {
	if m.plan == nil {
		return 0, 0, 0, 0, false
	}
	return m.plan.MRU, m.plan.Victim, m.stepIdx, len(m.plan.Steps), true
}

// startStep materializes the current step's sub-copies and arms the live
// fill state when applicable. Copy order is critical-data-first for live
// critical steps: start at the most recently touched sub-block and wrap.
func (m *Migrator) startStep() []SubCopy {
	m.forget()
	st := m.plan.Steps[m.stepIdx]
	nsub := m.SubBlocksPerPage()
	start := 0
	if st.Critical && m.opt.Design == DesignLive {
		if s := int(m.lastSub[m.plan.MRU]); s >= 0 && s < nsub && !m.opt.NoCriticalFirst {
			start = s
		}
		m.fill.active = true
		m.fill.phys = m.plan.MRU
		m.fill.dstSlot = st.Dst
		m.fill.old = st.OldMachine
		m.fill.done = make([]bool, nsub)
	}
	subs := make([]SubCopy, 0, nsub)
	for i := 0; i < nsub; i++ {
		sub := (start + i) % nsub
		off := uint64(sub) * m.opt.SubBlockSize
		subs = append(subs, SubCopy{
			Src:      m.geom.Join(st.Src, off),
			Dst:      m.geom.Join(st.Dst, off),
			Bytes:    m.opt.SubBlockSize,
			SubIndex: sub,
			Exchange: st.Exchange,
		})
	}
	return subs
}

// SubDone marks one sub-block of the current step as copied; for live
// critical steps this flips the bitmap bit that redirects subsequent
// accesses on-package.
func (m *Migrator) SubDone(subIndex int) {
	if m.fill.active && subIndex >= 0 && subIndex < len(m.fill.done) {
		m.fill.done[subIndex] = true
	}
}

// StepDone applies the completed step's table mutation and returns the next
// step's sub-copies; done reports whether the whole swap finished.
func (m *Migrator) StepDone() (next []SubCopy, done bool, err error) {
	if m.plan == nil {
		return nil, true, fmt.Errorf("core: StepDone with no swap in flight")
	}
	if m.rollback {
		return nil, true, fmt.Errorf("core: StepDone while rolling back")
	}
	st := m.plan.Steps[m.stepIdx]
	if st.Critical {
		m.fill.active = false
		m.fill.done = nil
	}
	m.forget()
	if err := st.apply(m.table); err != nil {
		m.plan = nil
		return nil, true, fmt.Errorf("core: swap step %q: %w", st.Label, err)
	}
	m.stats.PagesCopied++
	m.stats.BytesCopied += m.opt.PageSize
	if st.Exchange {
		m.stats.PagesCopied++
		m.stats.BytesCopied += m.opt.PageSize
	}
	m.stepIdx++
	if m.stepIdx >= len(m.plan.Steps) {
		m.finishSwap()
		return nil, true, nil
	}
	return m.startStep(), false, nil
}

func (m *Migrator) finishSwap() {
	mru := m.plan.MRU
	m.plan = nil
	m.snap = nil
	m.stats.SwapsCompleted++
	m.mq.Remove(mru)
	m.lastSub[mru] = -1
	// Keep the (possibly moved) empty slot pinned and give the freshly
	// promoted page a grace period by marking it referenced.
	m.repinSlots()
	if s := m.table.SlotOf(mru); s >= 0 {
		m.clock.Touch(s)
	}
}

// repinSlots moves the victim selector's empty-row pin to the table's
// current empty row. The pin set is then the retired slots plus that row:
// the previously pinned row becomes eligible again unless it was retired
// (retired slots stay pinned forever).
func (m *Migrator) repinSlots() {
	if old := m.pinnedEmpty; old >= 0 && !m.table.Retired(old) {
		m.clock.Unpin(old)
	}
	m.pinnedEmpty = m.table.EmptyRow()
	if m.pinnedEmpty >= 0 {
		m.clock.Pin(m.pinnedEmpty)
	}
}

// CanSwap reports whether the design still has the structural room to swap:
// the N design always does, the N-1 and Live designs need their empty row
// (lost if the empty slot itself is retired).
func (m *Migrator) CanSwap() bool {
	return m.opt.Design == DesignN || m.table.EmptyRow() >= 0
}

// Degraded reports whether migration has been permanently frozen.
func (m *Migrator) Degraded() bool { return m.degraded }

// Degrade freezes migration forever: no more epochs, swaps, or hotness
// tracking. The current mapping stays live (accesses still translate), so
// the machine keeps running — slower, but correct. The caller must have
// quiesced any in-flight swap first.
func (m *Migrator) Degrade() {
	m.degraded = true
	m.fill.active = false
	m.fill.done = nil
}

// RestartStep re-materializes the current step's sub-copies after a
// step-completion fault, so the controller can re-run the whole step.
func (m *Migrator) RestartStep() ([]SubCopy, error) {
	if m.plan == nil || m.rollback {
		return nil, fmt.Errorf("core: RestartStep with no forward swap in flight")
	}
	return m.startStep(), nil
}

// AbortSwap abandons the in-flight swap and returns the ordered undo
// copy traffic that rewinds the data movement:
//
//   - If the current (incomplete) step is an exchange, its already-copied
//     sub-blocks (partialSubs) are re-exchanged first — a partial exchange
//     is the only forward copy that destroys data in place. Partial plain
//     copies need no undo: their destination frame holds no live page under
//     the snapshot mapping.
//   - Completed steps are then undone in reverse order with full-page
//     copies Dst -> Src (forward copies never destroyed their source, so
//     the source frame is rebuilt from the still-live destination copy).
//
// The table keeps its mid-swap state — still consistent, every page
// reachable via the P-bit protocol — until RollbackDone restores the
// snapshot. Accesses may continue while the undo traffic drains.
func (m *Migrator) AbortSwap(partialSubs []int) ([]SubCopy, error) {
	if m.plan == nil {
		return nil, fmt.Errorf("core: AbortSwap with no swap in flight")
	}
	if m.rollback {
		return nil, fmt.Errorf("core: AbortSwap while already rolling back")
	}
	m.rollback = true
	m.fill.active = false
	m.fill.done = nil
	var undo []SubCopy
	if m.stepIdx < len(m.plan.Steps) {
		if st := m.plan.Steps[m.stepIdx]; st.Exchange {
			for i := len(partialSubs) - 1; i >= 0; i-- {
				sub := partialSubs[i]
				off := uint64(sub) * m.opt.SubBlockSize
				undo = append(undo, SubCopy{
					Src:      m.geom.Join(st.Dst, off),
					Dst:      m.geom.Join(st.Src, off),
					Bytes:    m.opt.SubBlockSize,
					SubIndex: -1,
					Exchange: true,
				})
			}
		}
	}
	for i := m.stepIdx - 1; i >= 0; i-- {
		st := &m.plan.Steps[i]
		undo = append(undo, m.pageCopy(st.Dst, st.Src, st.Exchange))
	}
	return undo, nil
}

// pageCopy is a whole-page copy leg from machine page src to dst.
func (m *Migrator) pageCopy(src, dst uint64, exchange bool) SubCopy {
	return SubCopy{Src: m.geom.Join(src, 0), Dst: m.geom.Join(dst, 0), Bytes: m.opt.PageSize,
		SubIndex: -1, Exchange: exchange}
}

// RollbackDone restores the swap-start snapshot once the undo traffic has
// drained (or been abandoned, when the caller is degrading anyway). The
// promoted page stays in the off-package tracker so a later epoch can try
// again.
func (m *Migrator) RollbackDone() error {
	if m.plan == nil || !m.rollback {
		return fmt.Errorf("core: RollbackDone with no rollback in flight")
	}
	m.forget()
	if err := m.table.Restore(m.snap); err != nil {
		return err
	}
	m.plan = nil
	m.snap = nil
	m.rollback = false
	m.stepIdx = 0
	m.stats.SwapsRolledBack++
	m.repinSlots()
	return nil
}

// RetireSlot takes on-package slot s out of service after repeated faults
// and returns the ordered copy traffic that evacuates it. Only legal at a
// quiescent point (no swap in flight). Depending on the slot's occupant:
//
//   - empty slot: no traffic; the N-1/Live designs lose their empty row and
//     can no longer swap (CanSwap turns false — the caller degrades).
//   - page s in its own slot (OF): one copy, slot -> spare frame.
//   - migrated page q in the slot (MF): page s's data sits at frame q; copy
//     frame q -> spare first (rescue page s), then slot -> frame q (send
//     page q home). Order matters: the second copy overwrites the first's
//     source.
//
// The slot is pinned in the victim selector forever and the exiled page can
// never re-promote; the design degrades toward an (N-1)-shaped layout with
// the retired slot as a hole.
func (m *Migrator) RetireSlot(s int) ([]SubCopy, error) {
	if m.plan != nil {
		return nil, fmt.Errorf("core: RetireSlot with swap in flight")
	}
	if s < 0 || uint64(s) >= m.table.Slots() {
		return nil, fmt.Errorf("core: retire slot %d out of range", s)
	}
	var copies []SubCopy
	spare := m.table.Omega() + 1 + m.table.Spares() // frame RetireSlot will assign
	switch r := m.table.Resident(s); {
	case r == Empty:
		// Nothing stored; no traffic.
	case r == uint64(s):
		copies = append(copies, m.pageCopy(uint64(s), spare, false))
	default:
		copies = append(copies, m.pageCopy(r, spare, false), m.pageCopy(uint64(s), r, false))
	}
	m.forget()
	if _, _, err := m.table.RetireSlot(s); err != nil {
		return nil, err
	}
	m.clock.Pin(s)
	m.mq.Remove(uint64(s))
	m.lastSub[s] = -1
	if m.naive != nil {
		m.naive[s] = 0
	}
	m.stats.SlotsRetired++
	return copies, nil
}
