package core

import "fmt"

// Step is one macro-page copy (or exchange) of a swap plan. Steps execute
// strictly in order; the table update attached to a step applies when its
// last byte has moved, which is what lets the N-1 design keep every page
// reachable at a valid physical location throughout the swap. A step is a
// plain value: steps compare with ==, and two plans' steps with slices.Equal.
type Step struct {
	Src uint64 // machine page the data moves from
	Dst uint64 // machine page the data moves to

	// OldMachine is the machine page still holding a valid copy of the
	// MRU page while a Critical step is in flight (live routing falls back
	// to it for not-yet-copied sub-blocks).
	OldMachine uint64

	Label string

	// Exchange marks an atomic two-way exchange through the controller's
	// line buffers (the N design's primitive); traffic is doubled.
	Exchange bool

	// Critical marks the step that brings the MRU page's data on-package;
	// it is the step live migration accelerates with the F bit and the
	// sub-block bitmap.
	Critical bool

	// The table update once the copy lands: slot row takes page or is
	// vacated, then row's P bit is set or cleared, as update says. A
	// slot's row and machine page share its index.
	update    update
	row, page uint64
}

// update is the set of table changes a step makes.
type update uint8

const (
	install update = 1 << iota // slot row takes page
	vacate                     // slot row is emptied
	setP                       // row's P bit is set
	clearP                     // row's P bit is cleared
)

// apply makes the step's table update.
func (st *Step) apply(t *Table) (err error) {
	if st.update&install != 0 {
		err = t.Install(int(st.row), st.page)
	} else if st.update&vacate != 0 {
		err = t.Vacate(int(st.row))
	}
	if err == nil && st.update&(setP|clearP) != 0 {
		t.SetPending(st.row, st.update&setP != 0)
	}
	return err
}

// Plan is a full hottest-coldest swap: the ordered steps plus bookkeeping.
type Plan struct {
	MRU    uint64 // physical macro page being promoted
	Victim int    // on-package slot being demoted
	Steps  []Step
}

// newPlan joins a plan's two halves in one slice of their exact length, so
// a plan of any shape is two allocations.
func newPlan(m uint64, victim int, first, second []Step) *Plan {
	steps := make([]Step, 0, len(first)+len(second))
	return &Plan{MRU: m, Victim: victim, Steps: append(append(steps, first...), second...)}
}

// BuildPlanN1 constructs the swap plan of the N-1 (and Live) designs for
// promoting MRU page m and demoting the page in slot victim. Each case of
// Fig. 8 is a promote half chosen by the MRU's category (OS, MS, or the
// Ghost page parked in Ω) followed by a demote half chosen by the victim's
// (OF or MF). When the victim slot holds an MS MRU's own swap partner,
// promoting the MRU sends the partner home and nothing is left to demote.
func BuildPlanN1(t *Table, m uint64, victim int) (*Plan, error) {
	if t.emptyRow < 0 {
		return nil, fmt.Errorf("core: N-1 plan requires an empty slot")
	}
	if victim < 0 || uint64(victim) >= t.n {
		return nil, fmt.Errorf("core: victim slot %d out of range", victim)
	}
	if victim == t.emptyRow {
		return nil, fmt.Errorf("core: victim slot %d is the empty slot", victim)
	}
	if s := t.SlotOf(m); s >= 0 {
		return nil, fmt.Errorf("core: MRU page %d already on-package (slot %d)", m, s)
	}
	er, v, omega := uint64(t.emptyRow), uint64(victim), t.Omega()
	var promote, demote []Step
	switch t.Classify(m) {
	case OriginalSlow:
		// Fig. 8a/8b: the MRU moves into the empty slot, the Ghost's data from Ω to its home.
		promote = []Step{
			{Src: m, Dst: er, OldMachine: m, Critical: true, Label: "OS-MRU -> empty slot", update: install | setP, row: er, page: m},
			{Src: omega, Dst: m, Label: "ghost data -> MRU home", update: clearP, row: er},
		}
	case MigratedSlow:
		// Fig. 8c/8d: partner e moves from slot m to the empty slot, the MRU
		// from e's home to slot m, and the Ghost's data from Ω to e's home.
		e := t.resident[m]
		promote = []Step{
			{Src: m, Dst: er, Label: "partner -> empty slot", update: install | setP, row: er, page: e},
			{Src: e, Dst: m, OldMachine: e, Critical: true, Label: "MS-MRU -> its own slot", update: install, row: m, page: m},
			{Src: omega, Dst: e, Label: "ghost data -> partner home", update: clearP, row: er},
		}
		if m == v {
			// The victim is the partner: it goes home from the empty slot, and nothing is left to demote.
			promote[2] = Step{Src: er, Dst: e, Label: "partner -> its home", update: vacate | clearP, row: er}
			return newPlan(m, victim, promote, nil), nil
		}
	case GhostPage:
		// The MRU's data is parked in Ω and its own slot is the empty slot.
		if m != er {
			return nil, fmt.Errorf("core: ghost page %d but empty row is %d", m, er)
		}
		promote = []Step{{Src: omega, Dst: er, OldMachine: omega, Critical: true,
			Label: "ghost MRU -> its own slot", update: install, row: er, page: m}}
	default:
		return nil, fmt.Errorf("core: MRU page %d is %v, not promotable", m, t.Classify(m))
	}
	if q := t.resident[victim]; q == v {
		// OF victim (Fig. 8a/8c): it moves to Ω, its slot the new empty slot.
		demote = []Step{{Src: v, Dst: omega, Label: "LRU -> omega", update: vacate, row: v}}
	} else {
		// MF victim (Fig. 8b/8d): its data moves from q's home to Ω, then q home.
		demote = []Step{
			{Src: q, Dst: omega, Label: "victim-row data -> omega", update: setP, row: v},
			{Src: v, Dst: q, Label: "MF-LRU -> its home", update: vacate | clearP, row: v},
		}
	}
	return newPlan(m, victim, promote, demote), nil
}

// BuildPlanN constructs the swap plan of the basic N design, which uses
// atomic page exchanges through the controller (no empty slot, no Ω) and
// stalls execution until the exchange completes.
func BuildPlanN(t *Table, m uint64, victim int) (*Plan, error) {
	if t.emptyRow >= 0 {
		return nil, fmt.Errorf("core: N plan requires no empty slot")
	}
	if victim < 0 || uint64(victim) >= t.n {
		return nil, fmt.Errorf("core: victim slot %d out of range", victim)
	}
	if s := t.SlotOf(m); s >= 0 {
		return nil, fmt.Errorf("core: MRU page %d already on-package (slot %d)", m, s)
	}
	switch t.Classify(m) {
	case OriginalSlow:
		v := uint64(victim)
		var restore []Step
		if q := t.resident[victim]; q != v {
			// MF victim: restore it first.
			restore = []Step{{Src: v, Dst: q, Exchange: true,
				Label: "restore MF victim <-> its home", update: install, row: v, page: v}}
		}
		return newPlan(m, victim, restore, []Step{{Src: v, Dst: m, OldMachine: m, Exchange: true, Critical: true,
			Label: "exchange victim slot <-> MRU home", update: install, row: v, page: m}}), nil
	case MigratedSlow:
		// Restoring the MS page is itself the promotion: the same exchange
		// evicts its partner, so the MRU's own slot is the victim.
		e := t.resident[m]
		return newPlan(m, int(m), []Step{{Src: m, Dst: e, OldMachine: e, Exchange: true, Critical: true,
			Label: "restore MS MRU <-> partner home", update: install, row: m, page: m}}, nil), nil
	default:
		return nil, fmt.Errorf("core: MRU page %d is %v, not promotable in N design", m, t.Classify(m))
	}
}
