// Package core implements the paper's primary contribution: the extra
// physical-to-machine address-translation layer kept by the on-chip memory
// controller, and the hottest-coldest macro-page migration engine with its
// three designs (N, N-1, and N-1 with Live Migration).
//
// Terminology follows the paper:
//
//   - N on-package macro-page slots; row s of the translation table is slot s.
//   - resident[s] is the macro page currently stored in slot s (the right
//     column of Fig. 6/7); a page p < N can only ever live in slot p.
//   - The N-1 design keeps one slot empty; the page that would occupy it is
//     the Ghost page, its data parked in the reserved off-package page Ω.
//   - The P (pending) bit of row p forces the RAM-direction translation of
//     page p to Ω while p's new off-package home is still being written.
//   - The F (filling) bit plus a sub-block bitmap implement live migration.
//
// Page categories: OF (original fast), OS (original slow), MF (migrated
// fast), MS (migrated slow), Ghost.
package core

import (
	"fmt"

	"heteromem/internal/addr"
)

// Empty is the sentinel stored in resident[s] when slot s holds no page.
const Empty = ^uint64(0)

// PageClass classifies a macro page per Section III-A.
type PageClass int

// Page categories of the paper, plus the fault-handling extension: a page
// whose slot was retired after repeated faults is Exiled to a reserved
// off-package spare frame and never migrates again.
const (
	OriginalFast PageClass = iota // ID < N, data in its own slot
	OriginalSlow                  // ID >= N, data in its own off-package home
	MigratedFast                  // ID >= N, data in some on-package slot
	MigratedSlow                  // ID < N, data at its swap partner's off-package home
	GhostPage                     // ID < N, data parked in Ω
	ExiledPage                    // ID < N, slot retired, data at a spare frame past Ω
)

// String names the page class.
func (c PageClass) String() string {
	switch c {
	case OriginalFast:
		return "OF"
	case OriginalSlow:
		return "OS"
	case MigratedFast:
		return "MF"
	case MigratedSlow:
		return "MS"
	case GhostPage:
		return "Ghost"
	case ExiledPage:
		return "Exiled"
	default:
		return fmt.Sprintf("PageClass(%d)", int(c))
	}
}

// Table is the bi-directional translation table: a RAM in the forward
// direction (row index -> resident page) and a CAM in the reverse direction
// (page -> slot holding it), as the paper requires.
type Table struct {
	n        uint64   // number of on-package slots (= rows)
	total    uint64   // total macro pages in the memory space
	resident []uint64 // resident[s]: page in slot s, or Empty
	pending  []bool   // P bit per row
	// back is the CAM as the hardware builds it: a dense reverse index over
	// the whole page-ID space (back[p] = slot holding page p, or -1). Only
	// migrated-fast pages (p >= N) ever hold an entry; the array replaces the
	// previous map so the hot-path reverse lookup is one indexed load with no
	// hashing and no allocation.
	back     []int32
	emptyRow int // row whose slot is empty; -1 in the N design

	// Fault-handling state: a retired row's slot is permanently out of
	// service (its frame faulted too often), and its page — when it held
	// data on-package — is exiled to a reserved spare frame past Ω.
	// Exiled pages are always < N, so the page -> spare-frame association is
	// a dense array indexed by page with Empty as the no-entry sentinel.
	retired     []bool
	exiledTo    []uint64 // exiledTo[p]: spare machine page of exiled page p, or Empty
	exiledCount int
	spares      uint64 // spare frames allocated so far

	pendingSets   uint64 // P-bit 0->1 transitions (observability)
	pendingClears uint64 // P-bit 1->0 transitions
}

// noSlot is the CAM's no-entry sentinel.
const noSlot = int32(-1)

// NewTable builds the initial identity mapping: pages 0..n-1 occupy slots
// 0..n-1. If sacrificeSlot is true (the N-1 and Live designs), the last
// slot starts empty and page n-1 starts as the Ghost page in Ω.
func NewTable(slots, totalPages uint64, sacrificeSlot bool) (*Table, error) {
	if slots == 0 || totalPages <= slots {
		return nil, fmt.Errorf("core: need 0 < slots(%d) < totalPages(%d)", slots, totalPages)
	}
	t := &Table{
		n:        slots,
		total:    totalPages,
		resident: make([]uint64, slots),
		pending:  make([]bool, slots),
		back:     make([]int32, totalPages),
		emptyRow: -1,
		retired:  make([]bool, slots),
		exiledTo: make([]uint64, slots),
	}
	for p := range t.back {
		t.back[p] = noSlot
	}
	for p := range t.exiledTo {
		t.exiledTo[p] = Empty
	}
	for s := range t.resident {
		t.resident[s] = uint64(s)
	}
	if sacrificeSlot {
		t.emptyRow = int(slots - 1)
		t.resident[t.emptyRow] = Empty
	}
	return t, nil
}

// Slots returns N, the number of on-package slots.
func (t *Table) Slots() uint64 { return t.n }

// TotalPages returns the number of macro pages in the memory space.
func (t *Table) TotalPages() uint64 { return t.total }

// Omega returns the reserved ghost page's machine page ID: the first page
// past the installed memory, reserved by the hardware driver after boot.
func (t *Table) Omega() uint64 { return t.total }

// EmptyRow returns the current empty row, or -1 (N design).
func (t *Table) EmptyRow() int { return t.emptyRow }

// Resident returns the page in slot s (Empty if none).
func (t *Table) Resident(s int) uint64 { return t.resident[s] }

// Pending reports row p's P bit.
func (t *Table) Pending(p uint64) bool { return p < t.n && t.pending[p] }

// SetPending sets or clears row p's P bit.
func (t *Table) SetPending(p uint64, v bool) {
	if p < t.n {
		if v && !t.pending[p] {
			t.pendingSets++
		} else if !v && t.pending[p] {
			t.pendingClears++
		}
		t.pending[p] = v
	}
}

// PendingTransitions returns the cumulative P-bit set and clear counts —
// the paper's mechanism for keeping every page reachable mid-swap, made
// countable for the observability layer.
func (t *Table) PendingTransitions() (sets, clears uint64) {
	return t.pendingSets, t.pendingClears
}

// SlotOf performs the CAM lookup: the slot holding page p, or -1.
// Pages p < N can only be in slot p (checked via the RAM side).
func (t *Table) SlotOf(p uint64) int {
	if p < t.n {
		if t.resident[p] == p {
			return int(p)
		}
		return -1
	}
	if p >= t.total {
		return -1
	}
	return int(t.back[p])
}

// Classify returns the paper's category for page p.
func (t *Table) Classify(p uint64) PageClass {
	if p >= t.total {
		return OriginalSlow
	}
	if p < t.n {
		if t.exiledTo[p] != Empty {
			return ExiledPage
		}
		switch {
		case t.resident[p] == p:
			return OriginalFast
		case t.resident[p] == Empty:
			return GhostPage
		default:
			return MigratedSlow
		}
	}
	if t.back[p] != noSlot {
		return MigratedFast
	}
	return OriginalSlow
}

// MachinePage translates physical page p to its machine page:
//   - on-package slots are machine pages 0..N-1,
//   - off-package homes keep their own IDs (machine page p for p >= N),
//   - Ω is machine page TotalPages().
//
// onPackage reports which region the machine page is in. This is the pure
// table translation; live-migration sub-block routing is layered on top by
// the Migrator.
func (t *Table) MachinePage(p uint64) (machine uint64, onPackage bool) {
	if p >= t.total {
		// Reserved/ghost page is not program-addressable; identity-map it.
		return p, false
	}
	if p < t.n {
		if spare := t.exiledTo[p]; spare != Empty {
			return spare, false // Exiled: slot retired, data at its spare frame
		}
		if t.pending[p] {
			return t.Omega(), false // P bit: RAM direction forced to Ω
		}
		switch r := t.resident[p]; {
		case r == p:
			return p, true // OF: own slot
		case r == Empty:
			return t.Omega(), false // Ghost: parked in Ω
		default:
			return r, false // MS: at partner r's off-package home
		}
	}
	if s := t.back[p]; s != noSlot {
		return uint64(s), true // MF: in slot s
	}
	return p, false // OS: own home
}

// Install records that page p now resides in slot s (CAM + RAM update).
func (t *Table) Install(s int, p uint64) error {
	if s < 0 || uint64(s) >= t.n {
		return fmt.Errorf("core: slot %d out of range", s)
	}
	if t.retired[s] {
		return fmt.Errorf("core: slot %d is retired", s)
	}
	if p < t.n && uint64(s) != p {
		return fmt.Errorf("core: page %d < N may only occupy its own slot, not %d", p, s)
	}
	// Drop the CAM entry of the page being overwritten — unless a swap step
	// has already re-homed that page to a different slot (mid-swap a page can
	// transiently have copies in two slots; the CAM tracks the live one).
	if old := t.resident[s]; old != Empty && old >= t.n && t.back[old] == int32(s) {
		t.back[old] = noSlot
	}
	t.resident[s] = p
	if p >= t.n && p != Empty {
		t.back[p] = int32(s)
	}
	if t.emptyRow == s {
		t.emptyRow = -1
	}
	return nil
}

// Vacate marks slot s empty (its original page becomes the Ghost).
func (t *Table) Vacate(s int) error {
	if s < 0 || uint64(s) >= t.n {
		return fmt.Errorf("core: slot %d out of range", s)
	}
	if t.retired[s] {
		return fmt.Errorf("core: slot %d is retired", s)
	}
	if old := t.resident[s]; old != Empty && old >= t.n && t.back[old] == int32(s) {
		t.back[old] = noSlot
	}
	t.resident[s] = Empty
	t.emptyRow = s
	return nil
}

// Retired reports whether slot s has been taken out of service.
func (t *Table) Retired(s int) bool {
	return s >= 0 && uint64(s) < t.n && t.retired[s]
}

// RetiredSlots counts slots taken out of service.
func (t *Table) RetiredSlots() int {
	n := 0
	for _, r := range t.retired {
		if r {
			n++
		}
	}
	return n
}

// Spares returns how many spare frames past Ω have been handed out to
// exiled pages. Legal machine pages therefore run up to Omega()+Spares().
func (t *Table) Spares() uint64 { return t.spares }

// ExiledTo returns the spare frame page p was exiled to, if any.
func (t *Table) ExiledTo(p uint64) (uint64, bool) {
	if p >= t.n || t.exiledTo[p] == Empty {
		return 0, false
	}
	return t.exiledTo[p], true
}

// RetireSlot takes slot s permanently out of service after repeated faults.
// The caller must have quiesced migration (no P bit on row s) and must have
// already copied the affected data:
//
//   - empty slot: nothing to copy; the table loses its empty row, so the
//     N-1 and Live designs can no longer swap (the caller degrades).
//   - OF resident (page s in its own slot): page s's data must be copied to
//     the returned spare frame before calling.
//   - MF resident q: frame q currently holds page s's data (MS) and slot s
//     holds page q's; page s's data must be copied to the spare and page q's
//     back to frame q — in that order — before calling.
//
// On return the slot reads Empty but is excluded from empty-row accounting,
// and page s (when it held data) translates to the spare frame forever.
func (t *Table) RetireSlot(s int) (spare uint64, exiledPage bool, err error) {
	if s < 0 || uint64(s) >= t.n {
		return 0, false, fmt.Errorf("core: slot %d out of range", s)
	}
	if t.retired[s] {
		return 0, false, fmt.Errorf("core: slot %d already retired", s)
	}
	if t.pending[s] {
		return 0, false, fmt.Errorf("core: cannot retire slot %d with P bit set", s)
	}
	switch r := t.resident[s]; {
	case r == Empty:
		if t.emptyRow != s {
			return 0, false, fmt.Errorf("core: slot %d empty but emptyRow=%d", s, t.emptyRow)
		}
		t.emptyRow = -1
	case r == uint64(s): // OF: page s loses its slot, exiled to a spare
		spare = t.Omega() + 1 + t.spares
		t.spares++
		t.setExiled(uint64(s), spare)
		t.resident[s] = Empty
		exiledPage = true
	default: // MF: page r returns home, page s exiled to a spare
		t.back[r] = noSlot
		spare = t.Omega() + 1 + t.spares
		t.spares++
		t.setExiled(uint64(s), spare)
		t.resident[s] = Empty
		exiledPage = true
	}
	t.retired[s] = true
	return spare, exiledPage, nil
}

// setExiled records page p's exile destination, keeping the entry count.
func (t *Table) setExiled(p, spare uint64) {
	if t.exiledTo[p] == Empty {
		t.exiledCount++
	}
	t.exiledTo[p] = spare
}

// TableSnapshot captures the mutable translation state (RAM rows, P bits,
// empty row) so an aborted swap can roll the table back. Retirement state
// is deliberately not captured: retirements only happen at quiescent points,
// never between a snapshot and its restore.
type TableSnapshot struct {
	resident []uint64
	pending  []bool
	emptyRow int
}

// Snapshot copies the current translation state.
func (t *Table) Snapshot() *TableSnapshot {
	return t.SnapshotInto(nil)
}

// SnapshotInto copies the current translation state into snap, reusing its
// buffers when the shape matches; nil (or a mismatched shape) gets a fresh
// snapshot. The returned snapshot is snap itself when it was reused, so
// callers taking a snapshot per swap can recycle one allocation for the
// life of the run.
func (t *Table) SnapshotInto(snap *TableSnapshot) *TableSnapshot {
	if snap == nil || len(snap.resident) != len(t.resident) || len(snap.pending) != len(t.pending) {
		snap = &TableSnapshot{
			resident: make([]uint64, len(t.resident)),
			pending:  make([]bool, len(t.pending)),
		}
	}
	copy(snap.resident, t.resident)
	copy(snap.pending, t.pending)
	snap.emptyRow = t.emptyRow
	return snap
}

// Restore rewinds the table to a snapshot, rebuilding the CAM from the
// restored RAM direction. P-bit transition counters keep counting through
// the restore so observability stays honest.
func (t *Table) Restore(snap *TableSnapshot) error {
	if snap == nil || len(snap.resident) != len(t.resident) {
		return fmt.Errorf("core: snapshot does not match table shape")
	}
	copy(t.resident, snap.resident)
	for p := range snap.pending {
		t.SetPending(uint64(p), snap.pending[p])
	}
	t.emptyRow = snap.emptyRow
	t.reindex()
	return nil
}

// CheckInvariants validates the structural invariants the paper's design
// relies on; it is used by tests and property checks.
func (t *Table) CheckInvariants() error {
	empties := 0
	for s, r := range t.resident {
		if t.retired[s] {
			if r != Empty {
				return fmt.Errorf("core: retired slot %d holds page %d", s, r)
			}
			if t.emptyRow == s {
				return fmt.Errorf("core: emptyRow points at retired slot %d", s)
			}
			continue
		}
		switch {
		case r == Empty:
			empties++
			if t.emptyRow != s {
				return fmt.Errorf("core: slot %d empty but emptyRow=%d", s, t.emptyRow)
			}
		case r < t.n:
			if r != uint64(s) {
				return fmt.Errorf("core: page %d < N resident in foreign slot %d", r, s)
			}
		default:
			if got := t.back[r]; got != int32(s) {
				return fmt.Errorf("core: CAM out of sync for page %d in slot %d (cam=%d)", r, s, got)
			}
		}
	}
	if t.emptyRow >= 0 && empties != 1 {
		return fmt.Errorf("core: emptyRow=%d but %d empty slots", t.emptyRow, empties)
	}
	if t.emptyRow < 0 && empties != 0 {
		return fmt.Errorf("core: no emptyRow but %d empty slots", empties)
	}
	for p, s := range t.back {
		if s == noSlot {
			continue
		}
		if t.resident[s] != uint64(p) {
			return fmt.Errorf("core: CAM says page %d in slot %d, RAM says %d", p, s, t.resident[s])
		}
	}
	if uint64(t.exiledCount) > t.spares {
		return fmt.Errorf("core: %d exiled pages but only %d spares", t.exiledCount, t.spares)
	}
	seenSpare := make(map[uint64]bool, t.exiledCount)
	count := 0
	for pi, spare := range t.exiledTo {
		if spare == Empty {
			continue
		}
		count++
		p := uint64(pi)
		if !t.retired[p] {
			return fmt.Errorf("core: page %d exiled but slot %d not retired", p, p)
		}
		if spare <= t.Omega() || spare > t.Omega()+t.spares {
			return fmt.Errorf("core: page %d exiled to %d outside spare range", p, spare)
		}
		if seenSpare[spare] {
			return fmt.Errorf("core: spare frame %d exiled to twice", spare)
		}
		seenSpare[spare] = true
	}
	if count != t.exiledCount {
		return fmt.Errorf("core: exiled entry count %d != tracked %d", count, t.exiledCount)
	}
	return nil
}

// PureHardwareMinPage is the paper's feasibility split (Section III-B):
// pure-hardware migration for macro pages of 1 MB or more, OS-assisted below.
const PureHardwareMinPage = 1 * addr.MiB

// HardwareBits returns the pure-hardware cost in bits of managing
// onPkgBytes of on-package memory at macroPage granularity with subBlock
// live-migration chunks, reproducing the paper's accounting (Fig. 10 and
// the 9,228-bit example: 256 x 28 = 7,168 table bits + 1,024 fill-bitmap
// bits + 256 pseudo-LRU bits + 780 multi-queue bits).
func HardwareBits(onPkgBytes, macroPage, subBlock uint64, addrBits uint) uint64 {
	g := addr.MustPageGeom(macroPage)
	n := onPkgBytes / macroPage
	pageIDBits := uint64(addrBits) - uint64(g.OffsetBits())
	tableBits := n * (pageIDBits + 2) // right column + P bit + F bit
	fillBits := macroPage / subBlock  // live-migration bitmap
	lruBits := n                      // clock pseudo-LRU, 1 bit/slot
	const mqBits = 780                // 3 levels x 10 entries x 26-bit IDs
	return tableBits + fillBits + lruBits + mqBits
}
