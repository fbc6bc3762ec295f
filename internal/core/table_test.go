package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestTable(t *testing.T, slots, total uint64, sacrifice bool) *Table {
	t.Helper()
	tb, err := NewTable(slots, total, sacrifice)
	if err != nil {
		t.Fatalf("NewTable(%d,%d,%v): %v", slots, total, sacrifice, err)
	}
	return tb
}

func TestNewTableIdentity(t *testing.T) {
	tb := newTestTable(t, 8, 64, false)
	for p := uint64(0); p < 64; p++ {
		mp, on := tb.MachinePage(p)
		if mp != p {
			t.Errorf("page %d: machine %d, want identity", p, mp)
		}
		if want := p < 8; on != want {
			t.Errorf("page %d: onPackage=%v, want %v", p, on, want)
		}
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tb.EmptyRow() != -1 {
		t.Errorf("N design should have no empty row, got %d", tb.EmptyRow())
	}
}

func TestNewTableSacrifice(t *testing.T) {
	tb := newTestTable(t, 8, 64, true)
	if tb.EmptyRow() != 7 {
		t.Fatalf("empty row = %d, want 7 (last slot)", tb.EmptyRow())
	}
	if got := tb.Classify(7); got != GhostPage {
		t.Errorf("page 7 class = %v, want Ghost", got)
	}
	mp, on := tb.MachinePage(7)
	if on || mp != tb.Omega() {
		t.Errorf("ghost page translated to (%d,%v), want (omega=%d,false)", mp, on, tb.Omega())
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewTableRejectsBadShapes(t *testing.T) {
	cases := []struct{ slots, total uint64 }{
		{0, 10}, {10, 10}, {10, 5},
	}
	for _, c := range cases {
		if _, err := NewTable(c.slots, c.total, true); err == nil {
			t.Errorf("NewTable(%d,%d) succeeded, want error", c.slots, c.total)
		}
	}
}

func TestClassify(t *testing.T) {
	tb := newTestTable(t, 8, 64, true)
	// Swap page 20 into slot 3 manually: 3 becomes MS, 20 MF.
	if err := tb.Install(3, 20); err != nil {
		t.Fatal(err)
	}
	if got := tb.Classify(3); got != MigratedSlow {
		t.Errorf("page 3 = %v, want MS", got)
	}
	if got := tb.Classify(20); got != MigratedFast {
		t.Errorf("page 20 = %v, want MF", got)
	}
	if got := tb.Classify(0); got != OriginalFast {
		t.Errorf("page 0 = %v, want OF", got)
	}
	if got := tb.Classify(21); got != OriginalSlow {
		t.Errorf("page 21 = %v, want OS", got)
	}
	mp, on := tb.MachinePage(20)
	if !on || mp != 3 {
		t.Errorf("MF page 20 -> (%d,%v), want (3,true)", mp, on)
	}
	mp, on = tb.MachinePage(3)
	if on || mp != 20 {
		t.Errorf("MS page 3 -> (%d,%v), want (20,false)", mp, on)
	}
}

func TestPendingBitForcesOmega(t *testing.T) {
	tb := newTestTable(t, 8, 64, true)
	if err := tb.Install(3, 20); err != nil {
		t.Fatal(err)
	}
	tb.SetPending(3, true)
	mp, on := tb.MachinePage(3)
	if on || mp != tb.Omega() {
		t.Errorf("pending page 3 -> (%d,%v), want omega", mp, on)
	}
	// CAM direction must keep working while P is set.
	if mp, on := tb.MachinePage(20); !on || mp != 3 {
		t.Errorf("CAM for page 20 broken under P bit: (%d,%v)", mp, on)
	}
	tb.SetPending(3, false)
	if mp, _ := tb.MachinePage(3); mp != 20 {
		t.Errorf("after clearing P, page 3 -> %d, want 20", mp)
	}
}

func TestInstallRejectsForeignLowPage(t *testing.T) {
	tb := newTestTable(t, 8, 64, true)
	if err := tb.Install(2, 5); err == nil {
		t.Fatal("installing page 5 into slot 2 should fail (n<N only in own slot)")
	}
}

func TestVacateAndReinstall(t *testing.T) {
	tb := newTestTable(t, 8, 64, true)
	if err := tb.Vacate(2); err != nil {
		t.Fatal(err)
	}
	if tb.EmptyRow() != 2 {
		t.Errorf("empty row = %d, want 2", tb.EmptyRow())
	}
	if got := tb.Classify(2); got != GhostPage {
		t.Errorf("page 2 = %v, want Ghost", got)
	}
	if err := tb.Install(2, 30); err != nil {
		t.Fatal(err)
	}
	if tb.EmptyRow() != -1 {
		t.Errorf("empty row should clear after install, got %d", tb.EmptyRow())
	}
}

func TestInstallPreservesForeignCAM(t *testing.T) {
	// Mid-swap a page can be re-homed before its old slot is overwritten;
	// Install must not clobber the CAM entry that now points elsewhere.
	tb := newTestTable(t, 8, 64, true)
	if err := tb.Install(3, 20); err != nil { // page 20 in slot 3
		t.Fatal(err)
	}
	if err := tb.Install(7, 20); err != nil { // re-home page 20 to slot 7 (old empty)
		t.Fatal(err)
	}
	// Now overwrite slot 3 with its own page: must NOT delete back[20]->7.
	if err := tb.Install(3, 3); err != nil {
		t.Fatal(err)
	}
	if mp, on := tb.MachinePage(20); !on || mp != 7 {
		t.Errorf("page 20 -> (%d,%v), want (7,true)", mp, on)
	}
}

func TestHardwareBitsMatchesPaperExample(t *testing.T) {
	// 1 GB on-package, 4 MB macro pages, 4 KB sub-blocks, 48-bit space:
	// 256x28 table + 1024 bitmap + 256 pLRU + 780 multi-queue = 9,228 bits.
	got := HardwareBits(1<<30, 4<<20, 4<<10, 48)
	if got != 9228 {
		t.Fatalf("HardwareBits = %d, want 9228 (paper Section III-B)", got)
	}
}

func TestHardwareBitsGrowsWithFinerPages(t *testing.T) {
	prev := uint64(0)
	for _, size := range []uint64{4 << 20, 1 << 20, 256 << 10, 64 << 10, 16 << 10, 4 << 10} {
		bits := HardwareBits(1<<30, size, 4<<10, 48)
		if bits <= prev {
			t.Fatalf("bits(%d)=%d not greater than bits at coarser granularity %d", size, bits, prev)
		}
		prev = bits
	}
}

// TestTableRandomSwapsKeepInvariants drives random N-1 swap plans to
// completion and checks structural invariants and translation consistency
// after every full swap.
func TestTableRandomSwapsKeepInvariants(t *testing.T) {
	const slots, total = 16, 128
	tb := newTestTable(t, slots, total, true)
	rng := rand.New(rand.NewSource(7))

	// data tracks where each page's bytes live, keyed by machine page.
	// Initially page p's data is at machine page p, ghost at omega.
	data := make(map[uint64]uint64) // machine page -> physical page stored there
	for p := uint64(0); p < total; p++ {
		data[p] = p
	}
	data[tb.Omega()] = slots - 1
	delete(data, slots-1)

	for iter := 0; iter < 2000; iter++ {
		m := uint64(rng.Intn(total))
		if tb.SlotOf(m) >= 0 || tb.Classify(m) == OriginalFast {
			continue
		}
		victim := rng.Intn(slots)
		if victim == tb.EmptyRow() {
			continue
		}
		plan, err := BuildPlanN1(tb, m, victim)
		if err != nil {
			t.Fatalf("iter %d: BuildPlanN1(m=%d,victim=%d): %v", iter, m, victim, err)
		}
		for _, st := range plan.Steps {
			// Execute the copy on the shadow data map.
			pg, ok := data[st.Src]
			if !ok {
				t.Fatalf("iter %d: step %q copies from machine page %d which holds no data", iter, st.Label, st.Src)
			}
			data[st.Dst] = pg
			if err := st.apply(tb); err != nil {
				t.Fatalf("iter %d: step %q apply: %v", iter, st.Label, err)
			}
		}
		if err := tb.CheckInvariants(); err != nil {
			t.Fatalf("iter %d after swap of page %d: %v", iter, m, err)
		}
		// Every page must translate to a machine page actually holding its
		// data.
		for p := uint64(0); p < total; p++ {
			mp, _ := tb.MachinePage(p)
			if got := data[mp]; got != p {
				t.Fatalf("iter %d: page %d translates to machine %d which holds page %d", iter, p, mp, got)
			}
		}
		// The promoted page must now be on-package.
		if _, on := tb.MachinePage(m); !on {
			t.Fatalf("iter %d: page %d still off-package after swap", iter, m)
		}
	}
}

// TestTableTranslationBijective property: distinct physical pages never
// translate to the same machine page at rest.
func TestTableTranslationBijective(t *testing.T) {
	f := func(seed int64) bool {
		tb, err := NewTable(8, 64, true)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			m := uint64(rng.Intn(64))
			if tb.SlotOf(m) >= 0 || tb.Classify(m) == OriginalFast {
				continue
			}
			v := rng.Intn(8)
			if v == tb.EmptyRow() {
				continue
			}
			plan, err := BuildPlanN1(tb, m, v)
			if err != nil {
				return false
			}
			for _, st := range plan.Steps {
				if err := st.apply(tb); err != nil {
					return false
				}
			}
		}
		seen := make(map[uint64]uint64)
		for p := uint64(0); p < 64; p++ {
			mp, _ := tb.MachinePage(p)
			if other, dup := seen[mp]; dup {
				t.Logf("pages %d and %d both -> machine %d", other, p, mp)
				return false
			}
			seen[mp] = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
