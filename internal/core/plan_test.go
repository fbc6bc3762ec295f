package core

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

// planFixture builds a table in a known state:
//   - slot 2 holds page 20 (MF); page 2 is MS at page 20's home
//   - slot 5 empty (page 5 is the Ghost in Ω)
//   - everything else identity-mapped
func planFixture(t *testing.T) *Table {
	t.Helper()
	tb := newTestTable(t, 8, 64, true)
	if err := tb.Vacate(5); err != nil {
		t.Fatal(err)
	}
	// Slot 7 (the initial empty) gets its page back for a clean fixture.
	if err := tb.Install(7, 7); err != nil {
		t.Fatal(err)
	}
	if err := tb.Install(2, 20); err != nil {
		t.Fatal(err)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tb
}

// execute runs a plan to completion, checking invariants at the end.
func execute(t *testing.T, tb *Table, plan *Plan) {
	t.Helper()
	for _, st := range plan.Steps {
		if err := st.apply(tb); err != nil {
			t.Fatalf("step %q: %v", st.Label, err)
		}
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatalf("invariants after swap: %v", err)
	}
}

func TestPlanCaseA_OSMruOFVictim(t *testing.T) {
	tb := planFixture(t)
	plan, err := BuildPlanN1(tb, 30, 1) // OS page 30, OF victim slot 1
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 3 {
		t.Fatalf("case (a) has %d steps, want 3 (Fig. 8a)", len(plan.Steps))
	}
	if !plan.Steps[0].Critical {
		t.Fatal("first step (MRU -> empty slot) must be the critical one")
	}
	execute(t, tb, plan)
	if mp, on := tb.MachinePage(30); !on || mp != 5 {
		t.Fatalf("page 30 -> (%d,%v), want old empty slot 5 on-package", mp, on)
	}
	// Page 5 (old ghost) now lives at page 30's home.
	if mp, on := tb.MachinePage(5); on || mp != 30 {
		t.Fatalf("page 5 -> (%d,%v), want 30's home off-package", mp, on)
	}
	// The victim became the new ghost.
	if tb.Classify(1) != GhostPage || tb.EmptyRow() != 1 {
		t.Fatalf("victim page 1 class %v, empty row %d", tb.Classify(1), tb.EmptyRow())
	}
}

func TestPlanCaseB_OSMruMFVictim(t *testing.T) {
	tb := planFixture(t)
	plan, err := BuildPlanN1(tb, 30, 2) // OS page 30, MF victim (slot 2 holds 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 4 {
		t.Fatalf("case (b) has %d steps, want 4 (Fig. 8b)", len(plan.Steps))
	}
	execute(t, tb, plan)
	if mp, on := tb.MachinePage(30); !on || mp != 5 {
		t.Fatalf("page 30 -> (%d,%v)", mp, on)
	}
	// The evicted MF page 20 went back to its own home.
	if mp, on := tb.MachinePage(20); on || mp != 20 {
		t.Fatalf("page 20 -> (%d,%v), want its home", mp, on)
	}
	// Victim page 2 is the new ghost.
	if tb.Classify(2) != GhostPage {
		t.Fatalf("page 2 class %v, want Ghost", tb.Classify(2))
	}
}

func TestPlanCaseC_MSMruOFVictim(t *testing.T) {
	tb := planFixture(t)
	plan, err := BuildPlanN1(tb, 2, 1) // MS page 2 (partner 20 in slot 2), OF victim slot 1
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 4 {
		t.Fatalf("case (c) has %d steps, want 4 (Fig. 8c)", len(plan.Steps))
	}
	execute(t, tb, plan)
	// MS page 2 is home again.
	if mp, on := tb.MachinePage(2); !on || mp != 2 {
		t.Fatalf("page 2 -> (%d,%v), want its own slot", mp, on)
	}
	// Its partner 20 moved to the old empty slot (stays on-package).
	if mp, on := tb.MachinePage(20); !on || mp != 5 {
		t.Fatalf("page 20 -> (%d,%v), want slot 5", mp, on)
	}
	if tb.Classify(1) != GhostPage {
		t.Fatalf("victim class %v", tb.Classify(1))
	}
}

func TestPlanCaseD_MSMruMFVictim(t *testing.T) {
	tb := planFixture(t)
	// Add a second MF pair: slot 3 holds page 40.
	if err := tb.Install(3, 40); err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlanN1(tb, 2, 3) // MS page 2, MF victim (slot 3 holds 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 5 {
		t.Fatalf("case (d) has %d steps, want 5 (Fig. 8d's ten-step walkthrough)", len(plan.Steps))
	}
	execute(t, tb, plan)
	if mp, on := tb.MachinePage(2); !on || mp != 2 {
		t.Fatalf("page 2 -> (%d,%v)", mp, on)
	}
	if mp, on := tb.MachinePage(20); !on || mp != 5 {
		t.Fatalf("page 20 -> (%d,%v)", mp, on)
	}
	if mp, on := tb.MachinePage(40); on || mp != 40 {
		t.Fatalf("evicted page 40 -> (%d,%v), want home", mp, on)
	}
	if tb.Classify(3) != GhostPage {
		t.Fatalf("victim class %v", tb.Classify(3))
	}
}

func TestPlanGhostMru(t *testing.T) {
	tb := planFixture(t)
	// Page 5 is the ghost; promoting it restores it to its own slot.
	plan, err := BuildPlanN1(tb, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	execute(t, tb, plan)
	if mp, on := tb.MachinePage(5); !on || mp != 5 {
		t.Fatalf("ghost page 5 -> (%d,%v), want its own slot", mp, on)
	}
	if tb.Classify(1) != GhostPage {
		t.Fatalf("victim class %v", tb.Classify(1))
	}
}

func TestPlanGhostMruMFVictim(t *testing.T) {
	tb := planFixture(t)
	plan, err := BuildPlanN1(tb, 5, 2) // ghost MRU, MF victim (slot 2 holds 20)
	if err != nil {
		t.Fatal(err)
	}
	execute(t, tb, plan)
	if mp, on := tb.MachinePage(5); !on || mp != 5 {
		t.Fatalf("ghost page 5 -> (%d,%v)", mp, on)
	}
	if mp, on := tb.MachinePage(20); on || mp != 20 {
		t.Fatalf("page 20 -> (%d,%v), want home", mp, on)
	}
}

func TestPlanMSPartnerVictimCorner(t *testing.T) {
	tb := planFixture(t)
	// MRU = page 2 (MS) and the chosen victim is its own partner's slot.
	plan, err := BuildPlanN1(tb, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	execute(t, tb, plan)
	// Both restored; the empty slot stays where it was.
	if mp, on := tb.MachinePage(2); !on || mp != 2 {
		t.Fatalf("page 2 -> (%d,%v)", mp, on)
	}
	if mp, on := tb.MachinePage(20); on || mp != 20 {
		t.Fatalf("page 20 -> (%d,%v), want home", mp, on)
	}
	if tb.EmptyRow() != 5 {
		t.Fatalf("empty row moved to %d, want 5", tb.EmptyRow())
	}
}

func TestPlanRejections(t *testing.T) {
	tb := planFixture(t)
	if _, err := BuildPlanN1(tb, 20, 1); err == nil {
		t.Fatal("promoting an already-on-package (MF) page must fail")
	}
	if _, err := BuildPlanN1(tb, 0, 1); err == nil {
		t.Fatal("promoting an OF page must fail")
	}
	if _, err := BuildPlanN1(tb, 30, 5); err == nil {
		t.Fatal("the empty slot cannot be the victim")
	}
	if _, err := BuildPlanN1(tb, 30, 99); err == nil {
		t.Fatal("out-of-range victim accepted")
	}
	nTable := newTestTable(t, 8, 64, false)
	if _, err := BuildPlanN1(nTable, 30, 1); err == nil {
		t.Fatal("N-1 plan on a table without an empty slot accepted")
	}
	if _, err := BuildPlanN(tb, 30, 1); err == nil {
		t.Fatal("N plan on a table with an empty slot accepted")
	}
}

func TestPlanNCases(t *testing.T) {
	tb := newTestTable(t, 8, 64, false)
	// OF victim: one exchange.
	plan, err := BuildPlanN(tb, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 1 || !plan.Steps[0].Exchange {
		t.Fatalf("N design OF case: %+v", plan.Steps)
	}
	execute(t, tb, plan)
	if mp, on := tb.MachinePage(30); !on || mp != 1 {
		t.Fatalf("page 30 -> (%d,%v)", mp, on)
	}
	// MF victim: restore exchange + promote exchange.
	plan, err = BuildPlanN(tb, 40, 1) // slot 1 now holds 30 (MF)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 {
		t.Fatalf("N design MF case: %d steps, want 2", len(plan.Steps))
	}
	execute(t, tb, plan)
	if mp, on := tb.MachinePage(40); !on || mp != 1 {
		t.Fatalf("page 40 -> (%d,%v)", mp, on)
	}
	if mp, on := tb.MachinePage(30); on || mp != 30 {
		t.Fatalf("page 30 -> (%d,%v), want restored home", mp, on)
	}
	// MS MRU: restoring is the promotion.
	plan, err = BuildPlanN(tb, 1, 3) // page 1 is MS (partner 40 in slot 1)
	if err != nil {
		t.Fatal(err)
	}
	execute(t, tb, plan)
	if mp, on := tb.MachinePage(1); !on || mp != 1 {
		t.Fatalf("page 1 -> (%d,%v)", mp, on)
	}
}

// TestPlanPendingBitTransitions walks case (b) step by step verifying the
// paper's mid-swap routing guarantees: every page is reachable at a valid
// location after each table update.
func TestPlanPendingBitTransitions(t *testing.T) {
	tb := planFixture(t)
	plan, err := BuildPlanN1(tb, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Before any step: page 30 off-package at home.
	if mp, on := tb.MachinePage(30); on || mp != 30 {
		t.Fatalf("pre-swap page 30 -> (%d,%v)", mp, on)
	}
	// Step 1 complete: 30 now reachable on-package; the old empty slot's
	// page (5) must still route to Ω via the P bit.
	if err := plan.Steps[0].apply(tb); err != nil {
		t.Fatal(err)
	}
	if mp, on := tb.MachinePage(30); !on || mp != 5 {
		t.Fatalf("after step 1: page 30 -> (%d,%v)", mp, on)
	}
	if !tb.Pending(5) {
		t.Fatal("row 5 P bit not set after step 1")
	}
	if mp, on := tb.MachinePage(5); on || mp != tb.Omega() {
		t.Fatalf("after step 1: page 5 -> (%d,%v), want Ω", mp, on)
	}
	// Step 2 complete: P cleared, page 5 now at 30's home.
	if err := plan.Steps[1].apply(tb); err != nil {
		t.Fatal(err)
	}
	if tb.Pending(5) {
		t.Fatal("row 5 P bit not cleared after step 2")
	}
	if mp, _ := tb.MachinePage(5); mp != 30 {
		t.Fatalf("after step 2: page 5 -> %d, want 30's home", mp)
	}
	// Step 3 complete: victim data in Ω, P(2) set; CAM for 20 still valid.
	if err := plan.Steps[2].apply(tb); err != nil {
		t.Fatal(err)
	}
	if mp, on := tb.MachinePage(2); on || mp != tb.Omega() {
		t.Fatalf("after step 3: page 2 -> (%d,%v), want Ω", mp, on)
	}
	if mp, on := tb.MachinePage(20); !on || mp != 2 {
		t.Fatalf("after step 3: page 20 -> (%d,%v), CAM must keep working", mp, on)
	}
	// Step 4 complete: 20 home, slot 2 empty.
	if err := plan.Steps[3].apply(tb); err != nil {
		t.Fatal(err)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanAllocations checks that a plan of every shape is two allocations,
// the Plan and its step slice, that a step fits in 64 bytes, and that steps
// are values: two builds of one swap compare equal.
func TestPlanAllocations(t *testing.T) {
	if size := unsafe.Sizeof(Step{}); size > 64 {
		t.Errorf("Step is %d bytes, want at most 64", size)
	}
	n1 := planFixture(t)
	if err := n1.Install(3, 40); err != nil { // a second MF pair, as in case (d)
		t.Fatal(err)
	}
	n := newTestTable(t, 8, 64, false)
	if err := n.Install(1, 30); err != nil { // slot 1 holds MF page 30, page 1 is MS
		t.Fatal(err)
	}
	for _, tc := range []struct {
		design Design
		build  func(*Table, uint64, int) (*Plan, error)
		tb     *Table
		m      uint64
		victim int
	}{
		{DesignN1, BuildPlanN1, n1, 30, 1},
		{DesignN1, BuildPlanN1, n1, 30, 2},
		{DesignN1, BuildPlanN1, n1, 2, 1},
		{DesignN1, BuildPlanN1, n1, 2, 3},
		{DesignN1, BuildPlanN1, n1, 2, 2},
		{DesignN1, BuildPlanN1, n1, 5, 1},
		{DesignN1, BuildPlanN1, n1, 5, 3},
		{DesignN, BuildPlanN, n, 40, 2},
		{DesignN, BuildPlanN, n, 40, 1},
		{DesignN, BuildPlanN, n, 1, 3},
	} {
		shape := planShape(tc.tb, tc.design, tc.m, tc.victim)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := tc.build(tc.tb, tc.m, tc.victim); err != nil {
				t.Fatalf("%v %s: %v", tc.design, shape, err)
			}
		})
		if allocs != 2 {
			t.Errorf("%v %s: %v allocations per plan, want 2", tc.design, shape, allocs)
		}
		a, _ := tc.build(tc.tb, tc.m, tc.victim)
		b, _ := tc.build(tc.tb, tc.m, tc.victim)
		if !slices.Equal(a.Steps, b.Steps) {
			t.Errorf("%v %s: two builds of one swap differ: %+v, %+v", tc.design, shape, a.Steps, b.Steps)
		}
	}
}

// TestPlanPinned pins every plan the two builders make over random walks of
// a 4-slot, 10-page table: each plan's MRU and victim, every step's copy
// fields and label, the table after each step lands, and the error of every
// rejected draw. Between swaps a slot is occasionally retired, and every
// third plan is rolled back to its swap-start snapshot. Victims are drawn
// only from live slots, as the migrator's victim selector keeps retired
// slots pinned.
func TestPlanPinned(t *testing.T) {
	const slots, total = 4, 10
	for _, tc := range []struct {
		design Design
		build  func(*Table, uint64, int) (*Plan, error)
		shapes string
		digest string
	}{
		{DesignN, BuildPlanN, "MS OS/MF OS/OF", "9cef6033b596a3332a145d16804ac0eb58a1021654611311f2ad490498f60302"},
		{DesignN1, BuildPlanN1, "Ghost/MF Ghost/OF MS/MF MS/OF MS/partner OS/MF OS/OF", "afcfb4142b4a6b4e187f9a9fafab65dcf55a9a624e2d211a352a580f434d7f7c"},
	} {
		h := sha256.New()
		seen := map[string]int{}
		plans := 0
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tb := newTestTable(t, slots, total, tc.design != DesignN)
			for draw := 0; draw < 400; draw++ {
				var live []int
				for s := 0; s < slots; s++ {
					if !tb.Retired(s) {
						live = append(live, s)
					}
				}
				if len(live) == 0 {
					break
				}
				if rng.Intn(150) == 0 {
					s := live[rng.Intn(len(live))]
					spare, exiled, err := tb.RetireSlot(s)
					fmt.Fprintf(h, "retire %d: %d %t %v\n", s, spare, exiled, err)
					continue
				}
				m, victim := uint64(rng.Intn(total)), live[rng.Intn(len(live))]
				shape := planShape(tb, tc.design, m, victim)
				plan, err := tc.build(tb, m, victim)
				if err != nil {
					fmt.Fprintf(h, "reject %d %d: %v\n", m, victim, err)
					continue
				}
				seen[shape]++
				plans++
				fmt.Fprintf(h, "plan %d %d\n", plan.MRU, plan.Victim)
				start := tb.Snapshot()
				for _, st := range plan.Steps {
					fmt.Fprintf(h, "step %d %d %t %t %d %q\n", st.Src, st.Dst, st.Exchange, st.Critical, st.OldMachine, st.Label)
					if err := st.apply(tb); err != nil {
						t.Fatalf("%v seed %d draw %d: step %q: %v", tc.design, seed, draw, st.Label, err)
					}
					hashTable(h, tb)
				}
				if err := tb.CheckInvariants(); err != nil {
					t.Fatalf("%v seed %d draw %d: %v", tc.design, seed, draw, err)
				}
				if plans%3 == 0 {
					if err := tb.Restore(start); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		var shapes []string
		for s := range seen {
			shapes = append(shapes, s)
		}
		sort.Strings(shapes)
		if got := strings.Join(shapes, " "); got != tc.shapes {
			t.Errorf("%v: reached shapes %q, want %q", tc.design, got, tc.shapes)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.digest {
			t.Errorf("%v: %d plans %v, digest %s, want %s", tc.design, plans, seen, got, tc.digest)
		}
	}
}

// planShape names the Fig. 8 case a plan for MRU m and victim slot victim
// covers: the MRU's category over the victim's, or the MS corners.
func planShape(tb *Table, d Design, m uint64, victim int) string {
	switch mru := tb.Classify(m); {
	case mru == MigratedSlow && d == DesignN:
		return "MS"
	case mru == MigratedSlow && int(m) == victim:
		return "MS/partner"
	default:
		return mru.String() + "/" + tb.Classify(tb.Resident(victim)).String()
	}
}

// hashTable writes the table's translation state: the RAM rows, the P bits,
// the empty row and the CAM.
func hashTable(h hash.Hash, tb *Table) {
	fmt.Fprintln(h, tb.resident, tb.pending, tb.emptyRow, tb.back)
}
