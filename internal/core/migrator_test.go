package core

import (
	"testing"
)

func newTestMigrator(t *testing.T, design Design, interval uint64) *Migrator {
	t.Helper()
	m, err := NewMigrator(Options{
		Design:       design,
		Slots:        8,
		TotalPages:   64,
		PageSize:     64 * 1024,
		SubBlockSize: 4 * 1024,
		SwapInterval: interval,
	})
	if err != nil {
		t.Fatalf("NewMigrator: %v", err)
	}
	return m
}

// drainSwap executes an in-flight swap to completion, returning the number
// of steps run.
func drainSwap(t *testing.T, m *Migrator, subs []SubCopy) int {
	t.Helper()
	steps := 0
	for subs != nil {
		steps++
		for _, sc := range subs {
			m.SubDone(sc.SubIndex)
		}
		next, done, err := m.StepDone()
		if err != nil {
			t.Fatalf("StepDone: %v", err)
		}
		if done {
			return steps
		}
		subs = next
	}
	return steps
}

// hammer feeds accesses to one page until a swap triggers or maxTicks pass.
func hammer(m *Migrator, phys uint64, maxTicks int) []SubCopy {
	for i := 0; i < maxTicks; i++ {
		_, on := m.Translate(phys)
		m.OnAccess(phys, on)
		if subs := m.EpochTick(); subs != nil {
			return subs
		}
	}
	return nil
}

func TestMigratorPromotesHotPage(t *testing.T) {
	m := newTestMigrator(t, DesignN1, 16)
	const hot = 40 // off-package page
	if _, on := m.Translate(hot << 16); on {
		t.Fatal("page 40 should start off-package")
	}
	subs := hammer(m, hot<<16, 1000)
	if subs == nil {
		t.Fatal("no swap triggered for a hammered off-package page")
	}
	if !m.SwapInFlight() {
		t.Fatal("swap should be in flight")
	}
	drainSwap(t, m, subs)
	if m.SwapInFlight() {
		t.Fatal("swap still in flight after drain")
	}
	if _, on := m.Translate(hot << 16); !on {
		t.Fatal("hot page not on-package after swap")
	}
	if err := m.Table().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.SwapsCompleted != 1 {
		t.Fatalf("SwapsCompleted = %d, want 1", st.SwapsCompleted)
	}
	if st.PagesCopied == 0 || st.BytesCopied == 0 {
		t.Fatalf("copy accounting empty: %+v", st)
	}
}

func TestMigratorBlocksOverlappingSwaps(t *testing.T) {
	m := newTestMigrator(t, DesignN1, 8)
	subs := hammer(m, 40<<16, 1000)
	if subs == nil {
		t.Fatal("no swap triggered")
	}
	// Swap in flight: hammering another page must not start a second one.
	if got := hammer(m, 41<<16, 200); got != nil {
		t.Fatal("second swap started while first in flight")
	}
	if m.Stats().TriggersBlocked == 0 {
		t.Fatal("blocked-trigger counter not incremented")
	}
	drainSwap(t, m, subs)
	if got := hammer(m, 41<<16, 1000); got == nil {
		t.Fatal("swap should trigger again once the first completed")
	}
}

func TestMigratorColdTriggerSkipped(t *testing.T) {
	m := newTestMigrator(t, DesignN1, 32)
	// Touch on-package pages a lot, one off-package page only once per epoch:
	// the MRU is never hotter than the LRU, so no swap should start.
	for i := 0; i < 20; i++ {
		for j := 0; j < 31; j++ {
			p := uint64(j % 7)
			_, on := m.Translate(p << 16)
			m.OnAccess(p<<16, on)
			if s := m.EpochTick(); s != nil {
				t.Fatal("unexpected swap")
			}
		}
		_, on := m.Translate(50 << 16)
		m.OnAccess(50<<16, on)
		if s := m.EpochTick(); s != nil {
			t.Fatal("swap triggered by a cold page")
		}
	}
	if m.Stats().TriggersCold == 0 {
		t.Fatal("cold-trigger counter not incremented")
	}
}

// TestDesignNMSColdAgainstOwnSlot pins the N design's trigger for an MS
// MRU: restoring it evicts its partner from the MRU's own slot, not the
// clock victim, so the swap starts only when the MRU is hotter than that
// slot.
func TestDesignNMSColdAgainstOwnSlot(t *testing.T) {
	m := newTestMigrator(t, DesignN, 100)
	subs := hammer(m, 40<<16, 100)
	if subs == nil {
		t.Fatal("epoch 1 did not promote page 40")
	}
	drainSwap(t, m, subs)
	if s := m.Table().SlotOf(40); s != 0 || m.Table().Classify(0) != MigratedSlow {
		t.Fatalf("after epoch 1: page 40 in slot %d, page 0 is %v; want slot 0 and MS", s, m.Table().Classify(0))
	}
	// Epoch 2: page 40 (in slot 0) takes 90 accesses, MS page 0 takes 10.
	for i := 0; i < 100; i++ {
		p := uint64(40)
		if i%10 == 9 {
			p = 0
		}
		_, on := m.Translate(p << 16)
		m.OnAccess(p<<16, on)
		if subs := m.EpochTick(); subs != nil {
			t.Fatalf("access %d: the swap sends page 40 (90 accesses) off for page 0 (10)", i)
		}
	}
	if got := m.Stats().TriggersCold; got != 1 {
		t.Fatalf("TriggersCold = %d, want 1", got)
	}
	if s := m.Table().SlotOf(40); s != 0 {
		t.Fatalf("page 40 moved to slot %d", s)
	}
}

func TestLiveMigrationRoutesCopiedSubBlocks(t *testing.T) {
	m := newTestMigrator(t, DesignLive, 16)
	const hot = 40
	// Make sub-block 5 the most recently touched so the copy starts there.
	base := uint64(hot << 16)
	lastAddr := base + 5*4096
	var subs []SubCopy
	for i := 0; i < 1000 && subs == nil; i++ {
		_, on := m.Translate(lastAddr)
		m.OnAccess(lastAddr, on)
		subs = m.EpochTick()
	}
	if subs == nil {
		t.Fatal("no swap triggered")
	}
	if subs[0].SubIndex != 5 {
		t.Fatalf("critical-data-first: first copied sub = %d, want 5 (the MRU sub-block)", subs[0].SubIndex)
	}
	// Nothing copied yet: all sub-blocks still route off-package.
	if _, on := m.Translate(base + 5*4096); on {
		t.Fatal("uncopied sub-block routed on-package")
	}
	// Copy the first sub-block: it must now route on-package while others
	// stay off-package.
	m.SubDone(subs[0].SubIndex)
	if _, on := m.Translate(base + 5*4096); !on {
		t.Fatal("copied sub-block still routed off-package")
	}
	if _, on := m.Translate(base + 6*4096); on {
		t.Fatal("uncopied sub-block routed on-package")
	}
	if m.Stats().LiveEarlyHits == 0 {
		t.Fatal("LiveEarlyHits not counted")
	}
	// Wrap-around order must cover all 16 sub-blocks exactly once.
	seen := make(map[int]bool)
	for _, sc := range subs {
		if seen[sc.SubIndex] {
			t.Fatalf("sub %d copied twice", sc.SubIndex)
		}
		seen[sc.SubIndex] = true
	}
	if len(seen) != 16 {
		t.Fatalf("copied %d distinct subs, want 16", len(seen))
	}
	drainSwap(t, m, subs)
	if _, on := m.Translate(base); !on {
		t.Fatal("page not fully on-package after live swap")
	}
}

func TestDesignNUsesExchanges(t *testing.T) {
	m := newTestMigrator(t, DesignN, 16)
	subs := hammer(m, 40<<16, 1000)
	if subs == nil {
		t.Fatal("no swap triggered")
	}
	if !subs[0].Exchange {
		t.Fatal("N design should produce exchange steps")
	}
	drainSwap(t, m, subs)
	if _, on := m.Translate(40 << 16); !on {
		t.Fatal("hot page not on-package after N exchange")
	}
	if err := m.Table().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.Table().EmptyRow() != -1 {
		t.Fatal("N design must not have an empty slot")
	}
}

func TestMigratorManySwapsKeepInvariants(t *testing.T) {
	for _, design := range []Design{DesignN, DesignN1, DesignLive} {
		m := newTestMigrator(t, design, 8)
		// Rotate hotness over many off-package pages.
		for round := 0; round < 60; round++ {
			page := uint64(10 + round%40)
			subs := hammer(m, page<<16, 200)
			if subs != nil {
				drainSwap(t, m, subs)
				if err := m.Table().CheckInvariants(); err != nil {
					t.Fatalf("%v round %d: %v", design, round, err)
				}
			}
		}
		if m.Stats().SwapsCompleted == 0 {
			t.Fatalf("%v: no swaps completed", design)
		}
	}
}

func TestNaiveMRUAblation(t *testing.T) {
	m, err := NewMigrator(Options{
		Design: DesignN1, Slots: 8, TotalPages: 64,
		PageSize: 64 * 1024, SubBlockSize: 4 * 1024,
		SwapInterval: 16, NaiveMRU: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	subs := hammer(m, 33<<16, 1000)
	if subs == nil {
		t.Fatal("naive MRU tracker never triggered a swap")
	}
	drainSwap(t, m, subs)
	if _, on := m.Translate(33 << 16); !on {
		t.Fatal("hot page not promoted under naive tracker")
	}
}

func TestMigratorOptionValidation(t *testing.T) {
	bad := []Options{
		{Design: DesignN1, Slots: 8, TotalPages: 64, PageSize: 64 << 10, SubBlockSize: 4 << 10, SwapInterval: 0},
		{Design: DesignN1, Slots: 8, TotalPages: 64, PageSize: 64 << 10, SubBlockSize: 7, SwapInterval: 10},
		{Design: DesignN1, Slots: 0, TotalPages: 64, PageSize: 64 << 10, SubBlockSize: 4 << 10, SwapInterval: 10},
	}
	for i, o := range bad {
		if _, err := NewMigrator(o); err == nil {
			t.Errorf("case %d: NewMigrator accepted invalid options %+v", i, o)
		}
	}
}

// TestNewMigratorRejectsUnknownDesign: the plan builder and the table run
// every design but N as N-1, so a value outside the three would silently
// simulate N-1.
func TestNewMigratorRejectsUnknownDesign(t *testing.T) {
	opt := Options{Slots: 8, TotalPages: 64, PageSize: 64 << 10, SubBlockSize: 4 << 10, SwapInterval: 10}
	for _, d := range []Design{DesignN, DesignN1, DesignLive} {
		opt.Design = d
		if _, err := NewMigrator(opt); err != nil {
			t.Errorf("%v: %v", d, err)
		}
	}
	for _, d := range []Design{Design(3), Design(7), Design(-1)} {
		opt.Design = d
		if _, err := NewMigrator(opt); err == nil {
			t.Errorf("NewMigrator accepted %v", d)
		}
	}
}

func TestMigratorVictimPolicies(t *testing.T) {
	for _, pol := range []VictimPolicy{VictimClockPLRU, VictimRandom, VictimFIFO} {
		m, err := NewMigrator(Options{
			Design: DesignN1, Slots: 8, TotalPages: 64,
			PageSize: 64 * 1024, SubBlockSize: 4 * 1024,
			SwapInterval: 16, Victim: pol,
		})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		subs := hammer(m, 40<<16, 1000)
		if subs == nil {
			t.Fatalf("%v: no swap triggered", pol)
		}
		drainSwap(t, m, subs)
		if _, on := m.Translate(40 << 16); !on {
			t.Fatalf("%v: hot page not promoted", pol)
		}
		if err := m.Table().CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
}

// TestParseDesign covers the one design vocabulary the CLIs and the sweep
// cells share.
func TestParseDesign(t *testing.T) {
	for _, name := range []string{"bogus", "", "n-2"} {
		if _, _, err := ParseDesign(name); err == nil {
			t.Errorf("design %q accepted", name)
		}
	}
	for name, want := range map[string]Design{"n": DesignN, "N": DesignN, "n-1": DesignN1, "n1": DesignN1, "live": DesignLive, "LIVE": DesignLive} {
		if d, migrates, err := ParseDesign(name); err != nil || !migrates || d != want {
			t.Errorf("ParseDesign(%q) = %v, %v, %v; want %v, true, nil", name, d, migrates, err, want)
		}
	}
	for _, name := range []string{"none", "static", "None"} {
		if _, migrates, err := ParseDesign(name); err != nil || migrates {
			t.Errorf("ParseDesign(%q): migrates %v, err %v; want a design that does not migrate", name, migrates, err)
		}
	}
}
