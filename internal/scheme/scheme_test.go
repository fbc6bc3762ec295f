package scheme

import (
	"testing"

	"heteromem/internal/snap"
)

func TestParseRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Spec
		out  string // canonical String(); "" means same as in
	}{
		{in: "", want: Spec{}, out: "migrate"},
		{in: "migrate", want: Spec{}},
		{in: "alloy", want: Spec{Kind: KindAlloy}},
		{in: "alloy-pred", want: Spec{Kind: KindAlloy, Predictor: true}},
		{in: "cachemode", want: Spec{Kind: KindCacheMode}},
		{in: "memcache", want: Spec{Kind: KindMemCache}},
		{in: "memcache:50", want: Spec{Kind: KindMemCache}, out: "memcache"},
		{in: "memcache:25", want: Spec{Kind: KindMemCache, MemPercent: 25}},
		{in: "memcache-pred", want: Spec{Kind: KindMemCache, Predictor: true}},
		{in: "memcache-pred:30", want: Spec{Kind: KindMemCache, Predictor: true, MemPercent: 30}},
	} {
		sp, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if sp != tc.want {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.in, sp, tc.want)
		}
		want := tc.out
		if want == "" {
			want = tc.in
		}
		if got := sp.String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, want)
		}
		if rt, err := Parse(sp.String()); err != nil || rt != sp {
			t.Errorf("String round-trip of %q: %+v, %v", tc.in, rt, err)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, in := range []string{
		"bogus", "alloy:3", "cachemode:50", "memcache:0", "memcache:100", "memcache:x", "migrate:1",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{Kind: KindCacheMode, Predictor: true}).Validate(); err == nil {
		t.Error("predictor on cachemode accepted")
	}
	if err := (Spec{Kind: KindAlloy, MemPercent: 30}).Validate(); err == nil {
		t.Error("mem percent on alloy accepted")
	}
	if err := (Spec{Kind: Kind(9)}).Validate(); err == nil {
		t.Error("invalid kind accepted")
	}
}

func TestAlloyDirectMapped(t *testing.T) {
	// 4 sets of 64B: addresses 0 and 256 collide in set 0.
	a, err := NewAlloy(Spec{Kind: KindAlloy}, 256, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r := a.Lookup(0, true); r.Hit || !r.Probe || r.WB {
		t.Fatalf("cold miss: %+v", r)
	}
	if r := a.Lookup(32, false); !r.Hit || r.Slot != 0 {
		t.Fatalf("same-block hit: %+v", r)
	}
	// Conflict evicts the dirty block 0 and owes its writeback.
	r := a.Lookup(256, false)
	if r.Hit || !r.WB || r.WBAddr != 0 || r.VictimRead {
		t.Fatalf("conflict miss: %+v", r)
	}
	if r.Slot != 0 {
		t.Fatalf("set 0 slot = %d", r.Slot)
	}
	st := a.Stats()
	if st.Accesses != 3 || st.Hits != 1 || st.Misses != 2 || st.Writebacks != 1 || st.Fills != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestAlloyBase(t *testing.T) {
	a, err := NewAlloy(Spec{Kind: KindMemCache}, 256, 1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r := a.Lookup(64, false); r.Slot != 1024+64 {
		t.Fatalf("based slot = %d, want %d", r.Slot, 1024+64)
	}
}

func TestAlloyPredictorOverlapsTrainedMisses(t *testing.T) {
	a, err := NewAlloy(Spec{Kind: KindAlloy, Predictor: true}, 256, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Untrained counters predict hit: the first misses probe serially.
	if r := a.Lookup(0, false); r.Parallel {
		t.Fatalf("untrained predictor overlapped the probe: %+v", r)
	}
	// Train block 0's counter down with conflict misses (0 and 256 share a
	// set and a predictor entry is per 64B block address).
	for i := 0; i < 8; i++ {
		a.Lookup(0, false)
		a.Lookup(256, false)
	}
	if r := a.Lookup(0, false); !r.Parallel {
		t.Fatalf("trained predictor still serial: %+v", r)
	}
	// A hit the predictor called a miss wastes the off-package fetch.
	if r := a.Lookup(0, false); !r.Hit || !r.WastedOff {
		t.Fatalf("mispredicted hit: %+v", r)
	}
	if st := a.Stats(); st.ProbeSkips == 0 || st.WastedOff == 0 {
		t.Fatalf("predictor stats %+v", st)
	}
}

func TestTagCacheAssociativityAndTagBuffer(t *testing.T) {
	// 2 sets × 16 ways × 64B = 2048 bytes.
	tc, err := NewTagCache(Spec{Kind: KindCacheMode}, 2048, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Cold access probes (tag buffer empty) and misses.
	if r := tc.Lookup(0, false); r.Hit || !r.Probe {
		t.Fatalf("cold: %+v", r)
	}
	// Same set, tag buffer now warm: no probe on the next access.
	if r := tc.Lookup(128, true); r.Probe {
		t.Fatalf("warm set probed: %+v", r)
	}
	// Hit on the dirty block.
	if r := tc.Lookup(128, false); !r.Hit {
		t.Fatalf("hit: %+v", r)
	}
	// Fill the set's remaining ways, then two more to evict LRU (block 0)
	// and then the dirty 128: the dirty eviction owes WB + victim read.
	for i := 2; i < 17; i++ {
		tc.Lookup(uint64(i)*128, false)
	}
	r := tc.Lookup(17*128, false)
	if r.Hit || !r.WB || r.WBAddr != 128 || !r.VictimRead {
		t.Fatalf("dirty eviction: %+v", r)
	}
}

func TestMemCacheSplit(t *testing.T) {
	const MiB = uint64(1) << 20
	m, err := NewMemCache(Spec{Kind: KindMemCache}, 512*MiB, 4*MiB, 64)
	if err != nil {
		t.Fatal(err)
	}
	if m.MemBytes() != 256*MiB {
		t.Fatalf("MemBytes = %d", m.MemBytes())
	}
	if r := m.Lookup(0, false); r.Slot < 256*MiB || r.Slot >= 512*MiB {
		t.Fatalf("cache-part slot %d outside [%d,%d)", r.Slot, 256*MiB, 512*MiB)
	}
	m25, err := NewMemCache(Spec{Kind: KindMemCache, MemPercent: 25}, 512*MiB, 4*MiB, 64)
	if err != nil {
		t.Fatal(err)
	}
	if m25.MemBytes() != 128*MiB {
		t.Fatalf("25%% MemBytes = %d", m25.MemBytes())
	}
	if _, err := NewMemCache(Spec{Kind: KindMemCache, MemPercent: 1}, 8*MiB, 4*MiB, 64); err == nil {
		t.Error("degenerate split accepted")
	}
}

// roundTrip snapshots s into a fresh encoder section and restores it into
// fresh.
func roundTrip(t *testing.T, s, fresh Cache) {
	t.Helper()
	if err := restoreInto(t, s, fresh); err != nil {
		t.Fatal(err)
	}
}

// restoreInto snapshots s and restores the blob into fresh, returning the
// restore error.
func restoreInto(t *testing.T, s, fresh Cache) error {
	t.Helper()
	e := snap.NewEncoder()
	s.Snap(e.Section("scheme"))
	blob, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d, err := snap.NewDecoder(blob)
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Section("scheme")
	if err != nil {
		t.Fatal(err)
	}
	fresh.Snap(st)
	return st.Err()
}

func TestSnapshotRoundTrip(t *testing.T) {
	a, _ := NewAlloy(Spec{Kind: KindAlloy, Predictor: true}, 4096, 0, 64)
	for i := uint64(0); i < 300; i++ {
		a.Lookup(i*64*7, i%3 == 0)
	}
	a2, _ := NewAlloy(Spec{Kind: KindAlloy, Predictor: true}, 4096, 0, 64)
	roundTrip(t, a, a2)
	if a2.Stats() != a.Stats() {
		t.Fatalf("alloy stats: %+v vs %+v", a2.Stats(), a.Stats())
	}
	// Identical behavior after restore: same probe results on a spray.
	for i := uint64(0); i < 100; i++ {
		r1, r2 := a.Lookup(i*64*5, false), a2.Lookup(i*64*5, false)
		if r1 != r2 {
			t.Fatalf("alloy diverged at %d: %+v vs %+v", i, r1, r2)
		}
	}

	tc, _ := NewTagCache(Spec{Kind: KindCacheMode}, 1<<16, 64)
	for i := uint64(0); i < 500; i++ {
		tc.Lookup(i*64*11, i%2 == 0)
	}
	tc2, _ := NewTagCache(Spec{Kind: KindCacheMode}, 1<<16, 64)
	roundTrip(t, tc, tc2)
	for i := uint64(0); i < 100; i++ {
		r1, r2 := tc.Lookup(i*64*13, false), tc2.Lookup(i*64*13, false)
		if r1 != r2 {
			t.Fatalf("tagcache diverged at %d: %+v vs %+v", i, r1, r2)
		}
	}

	// Shape mismatches are refused, not silently misread.
	small, _ := NewAlloy(Spec{Kind: KindAlloy}, 2048, 0, 64)
	if err := restoreInto(t, a, small); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}
