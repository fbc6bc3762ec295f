package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"heteromem/internal/policy"
	"heteromem/internal/snap"
)

// fullRebuildPins is repinSlots as first written: every slot that is not
// retired is unpinned, then the table's current empty row is pinned. It
// updates pins, the reference pin set, in place.
func fullRebuildPins(t *Table, pins []bool) {
	for s := range pins {
		if !t.Retired(s) {
			pins[s] = false
		}
	}
	if er := t.EmptyRow(); er >= 0 {
		pins[er] = true
	}
}

// restoreMidSwap checkpoints m and restores the blob into a fresh migrator
// built with the same options.
func restoreMidSwap(t *testing.T, m *Migrator) *Migrator {
	t.Helper()
	e := snap.NewEncoder()
	m.Snap(e.Section("migrator"))
	blob, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d, err := snap.NewDecoder(blob)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Section("migrator")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewMigrator(m.opt)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Snap(s); s.Err() != nil {
		t.Fatalf("restore mid-swap: %v", s.Err())
	}
	return fresh
}

// TestRepinMatchesFullRebuild drives random swaps, rollbacks and slot
// retirements, plus one checkpoint restore while a swap has moved the empty
// row, and after every event compares the victim selector's pinned set
// with the one the full unpin-everything rebuild would leave.
func TestRepinMatchesFullRebuild(t *testing.T) {
	for _, d := range []Design{DesignN, DesignN1, DesignLive} {
		t.Run(d.String(), func(t *testing.T) {
			m, err := NewMigrator(Options{
				Design:       d,
				Slots:        8,
				TotalPages:   32,
				PageSize:     4096,
				SubBlockSize: 512,
				SwapInterval: 50,
			})
			if err != nil {
				t.Fatal(err)
			}
			ref := make([]bool, m.table.Slots())
			fullRebuildPins(m.table, ref)
			check := func(event string) {
				t.Helper()
				clock := m.clock.(*policy.ClockPLRU)
				for s, want := range ref {
					if got := clock.Pinned(s); got != want {
						t.Fatalf("after %s: slot %d pinned=%v, full rebuild says %v (retired=%v, empty row %d)",
							event, s, got, want, m.table.Retired(s), m.table.EmptyRow())
					}
				}
			}
			check("construction")

			rng := rand.New(rand.NewSource(int64(d) + 1))
			var subs []SubCopy
			var swaps, rollbacks, retires, restores int
			for i := 0; i < 40_000; i++ {
				switch {
				case subs != nil && rng.Intn(20) == 0:
					if _, err := m.AbortSwap(nil); err != nil {
						t.Fatal(err)
					}
					if err := m.RollbackDone(); err != nil {
						t.Fatal(err)
					}
					subs = nil
					fullRebuildPins(m.table, ref)
					rollbacks++
					check("rollback")
				case subs != nil && restores == 0 && m.table.EmptyRow() != m.snap.emptyRow:
					m = restoreMidSwap(t, m)
					restores++
					check("restore mid-swap")
				case subs != nil && rng.Intn(4) == 0:
					for _, sc := range subs {
						m.SubDone(sc.SubIndex)
					}
					next, done, err := m.StepDone()
					if err != nil {
						t.Fatal(err)
					}
					subs = next
					if done {
						fullRebuildPins(m.table, ref)
						swaps++
					}
					check(fmt.Sprintf("step (swap done=%v)", done))
				case subs == nil && i >= 39_000 && m.table.EmptyRow() >= 0:
					// Late in the walk, retire the empty row itself: the
					// N-1 designs then stop swapping for good.
					er := m.table.EmptyRow()
					if _, err := m.RetireSlot(er); err != nil {
						t.Fatal(err)
					}
					ref[er] = true
					retires++
					check("retire empty row")
				case subs == nil && retires < 3 && rng.Intn(2000) == 0:
					// Keep the empty row so the N-1 designs can go on swapping.
					s := rng.Intn(len(ref))
					if m.table.Retired(s) || s == m.table.EmptyRow() {
						continue
					}
					if _, err := m.RetireSlot(s); err != nil {
						t.Fatal(err)
					}
					ref[s] = true
					retires++
					check("retire")
				default:
					page := uint64(rng.Intn(32))
					if rng.Intn(4) > 0 {
						page = uint64(8 + rng.Intn(6)) // hot off-package set
					}
					phys := page*4096 + uint64(rng.Intn(64))*64
					_, on := m.Translate(phys)
					m.OnAccess(phys, on)
					if started := m.EpochTick(); started != nil {
						subs = started
					}
					check("access")
				}
			}
			if swaps < 20 || rollbacks == 0 || retires == 0 {
				t.Fatalf("%d swaps, %d rollbacks, %d retirements: the random walk did not exercise repinning",
					swaps, rollbacks, retires)
			}
			if d != DesignN && restores == 0 {
				t.Fatal("no swap moved the empty row before a restore could be taken")
			}
		})
	}
}

// snapBytes returns m's checkpoint bytes.
func snapBytes(t *testing.T, m *Migrator) []byte {
	t.Helper()
	e := snap.NewEncoder()
	m.Snap(e.Section("migrator"))
	blob, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestOnAccessReuseMatchesLookup drives two migrators through one random
// walk of accesses, swap steps (live fills included), rollbacks, slot
// retirements and restores. One feeds OnAccess the machine page Translate
// resolved; the other forgets it, so OnAccess looks the table up again.
// Some accesses complete a swap step between Translate and OnAccess, after
// which the kept page must not be reused. Their checkpoint bytes must
// agree after every event.
func TestOnAccessReuseMatchesLookup(t *testing.T) {
	for _, d := range []Design{DesignN, DesignN1, DesignLive} {
		t.Run(d.String(), func(t *testing.T) {
			var migs [2]*Migrator
			for i := range migs {
				m, err := NewMigrator(Options{
					Design: d, Slots: 8, TotalPages: 32, PageSize: 4096, SubBlockSize: 512, SwapInterval: 50,
				})
				if err != nil {
					t.Fatal(err)
				}
				migs[i] = m
			}
			rng := rand.New(rand.NewSource(int64(d) + 7))
			var subs []SubCopy
			// copySubs marks the next k sub-blocks copied on both migrators
			// and finishes the step once all of them are.
			copySubs := func(k int) {
				var next []SubCopy
				for _, m := range migs {
					for _, sc := range subs[:k] {
						m.SubDone(sc.SubIndex)
					}
					if k < len(subs) {
						continue
					}
					var err error
					if next, _, err = m.StepDone(); err != nil {
						t.Fatal(err)
					}
				}
				if subs = subs[k:]; len(subs) == 0 {
					subs = next
				}
			}
			var reused, between, retires, restores int
			for i := 0; i < 40_000; i++ {
				switch {
				case subs != nil && rng.Intn(40) == 0:
					for _, m := range migs {
						if _, err := m.AbortSwap(nil); err != nil {
							t.Fatal(err)
						}
						if err := m.RollbackDone(); err != nil {
							t.Fatal(err)
						}
					}
					subs = nil
				case subs != nil && rng.Intn(200) == 0:
					for j := range migs {
						migs[j] = restoreMidSwap(t, migs[j])
					}
					restores++
				case subs != nil && rng.Intn(2) == 0:
					copySubs(min(len(subs), 1+rng.Intn(4)))
				case subs == nil && retires < 2 && i > 20_000 && rng.Intn(1000) == 0:
					s := rng.Intn(int(migs[0].table.Slots()))
					if migs[0].table.Retired(s) || s == migs[0].table.EmptyRow() {
						continue
					}
					for _, m := range migs {
						if _, err := m.RetireSlot(s); err != nil {
							t.Fatal(err)
						}
					}
					retires++
				default:
					page := uint64(rng.Intn(32))
					if rng.Intn(4) > 0 {
						page = uint64(8 + rng.Intn(6)) // hot off-package set
					}
					phys := page*4096 + uint64(rng.Intn(64))*64
					var on [2]bool
					for j, m := range migs {
						_, on[j] = m.Translate(phys)
						if j == 1 {
							m.forget()
						}
					}
					if subs != nil && rng.Intn(8) == 0 {
						copySubs(len(subs)) // the table changes under the access
						between++
					}
					if migs[0].hit.page != noPage {
						reused++
					}
					for j, m := range migs {
						m.OnAccess(phys, on[j])
						if started := m.EpochTick(); started != nil && j == 0 {
							subs = started
						}
					}
				}
				if !slices.Equal(snapBytes(t, migs[0]), snapBytes(t, migs[1])) {
					t.Fatalf("event %d: migrator state differs between reused and looked-up translations", i)
				}
			}
			st := migs[0].Stats()
			t.Logf("%d reused translations, %d steps between Translate and OnAccess, %d swaps, %d rollbacks, %d early live hits, %d retirements, %d restores",
				reused, between, st.SwapsCompleted, st.SwapsRolledBack, st.LiveEarlyHits, retires, restores)
			if st.SwapsCompleted == 0 || st.SwapsRolledBack == 0 || between == 0 || retires == 0 || restores == 0 ||
				(d == DesignLive && st.LiveEarlyHits == 0) {
				t.Fatal("the random walk missed swaps, rollbacks, steps under an access, retirements, restores or live fills")
			}
		})
	}
}
