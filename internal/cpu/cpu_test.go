package cpu

import (
	"testing"

	"heteromem/internal/addr"
	"heteromem/internal/config"
	"heteromem/internal/trace"
	"heteromem/internal/workload"
)

func testSource(t *testing.T, n uint64) trace.Source {
	t.Helper()
	gen, err := workload.NewProgram("EP.C", 3)
	if err != nil {
		t.Fatal(err)
	}
	return trace.NewLimit(gen, n)
}

func TestMemoryModelLatencies(t *testing.T) {
	lat := config.TableIILatencies()
	off := OffOnly{Lat: lat}
	on := AllOn{Lat: lat}
	if off.Latency(0, false) <= on.Latency(0, false) {
		t.Fatal("off-package must be slower than on-package")
	}
	st := StaticSplit{Lat: lat, OnBytes: 1 * addr.GiB}
	if st.Latency(0, false) != on.Latency(0, false) {
		t.Fatal("static split low address must cost on-package latency")
	}
	if st.Latency(2*addr.GiB, false) != off.Latency(0, false) {
		t.Fatal("static split high address must cost off-package latency")
	}
}

func TestL4BackedLatency(t *testing.T) {
	lat := config.TableIILatencies()
	l4, err := NewL4Backed(lat, 64*addr.MiB)
	if err != nil {
		t.Fatal(err)
	}
	first := l4.Latency(0, false)
	if first != lat.L4MissProbe()+lat.OffPackageTotalEstimate() {
		t.Fatalf("L4 miss latency = %d", first)
	}
	second := l4.Latency(0, false)
	if second != lat.L4HitLatency() {
		t.Fatalf("L4 hit latency = %d, want %d", second, lat.L4HitLatency())
	}
}

func TestL4BackedHitCostsTwoAccesses(t *testing.T) {
	lat := config.TableIILatencies()
	l4, err := NewL4Backed(lat, 1*addr.GiB) // the Fig. 5 L4 size
	if err != nil {
		t.Fatal(err)
	}
	// A cold miss pays one on-package access for the tag probe, then the
	// off-package access.
	if got := l4.Latency(0, false); got != lat.OnPackageTotalEstimate()+lat.OffPackageTotalEstimate() {
		t.Fatalf("miss latency = %d, want %d (tag probe + off-package)", got,
			lat.OnPackageTotalEstimate()+lat.OffPackageTotalEstimate())
	}
	// A hit pays two on-package accesses: the tag line, then the data.
	if got := l4.Latency(0, false); got != 2*lat.OnPackageTotalEstimate() {
		t.Fatalf("hit latency = %d, want %d (2x on-package access)", got, 2*lat.OnPackageTotalEstimate())
	}
}

func TestL4BackedIs15Way(t *testing.T) {
	lat := config.TableIILatencies()
	const size, line = 1 * addr.MiB, 512 // 1 MB for a small test
	l4, err := NewL4Backed(lat, size)
	if err != nil {
		t.Fatal(err)
	}
	// Each row of 16 lines is one set: 15 data ways and the tag line. Fill
	// one set with 15 lines; all of them must stay, and a 16th distinct
	// line must evict the least recent.
	sets := uint64(size / line / 16)
	for i := uint64(0); i < 15; i++ {
		l4.Latency(i*sets*line, false)
	}
	for i := uint64(0); i < 15; i++ {
		if l4.Latency(i*sets*line, false) != lat.L4HitLatency() {
			t.Fatalf("way %d of a 15-way set missed", i)
		}
	}
	l4.Latency(15*sets*line, false)
	if l4.Latency(0, false) == lat.L4HitLatency() {
		t.Fatal("16th line did not evict in a 15-way set")
	}
}

func TestRunProducesOrderedIPC(t *testing.T) {
	lat := config.TableIILatencies()
	levels := config.SRAMHierarchy()
	model := DefaultModel()
	const n = 200000

	res, err := Run(testSource(t, n), n, 0, levels, model, OffOnly{Lat: lat}, AllOn{Lat: lat})
	if err != nil {
		t.Fatal(err)
	}
	base, ideal := res[0], res[1]
	if base.Accesses != n || ideal.Accesses != n {
		t.Fatalf("access counts: %d, %d", base.Accesses, ideal.Accesses)
	}
	// The ideal all-on-chip configuration can never be slower.
	if ideal.IPC < base.IPC {
		t.Fatalf("ideal IPC %.3f < baseline %.3f", ideal.IPC, base.IPC)
	}
	if base.IPC <= 0 || base.Cycles <= 0 {
		t.Fatalf("degenerate result: %+v", base)
	}
	if base.L3MissRate < 0 || base.L3MissRate > 1 {
		t.Fatalf("miss rate %f", base.L3MissRate)
	}
}

func TestRunValidation(t *testing.T) {
	lat := config.TableIILatencies()
	levels := config.SRAMHierarchy()
	m := DefaultModel()
	m.MLPOverlap = 0
	if _, err := Run(testSource(t, 10), 10, 0, levels, m, OffOnly{Lat: lat}); err == nil {
		t.Fatal("zero MLP overlap accepted")
	}
	if _, err := Run(trace.NewSliceSource(nil), 10, 0, levels, DefaultModel(), OffOnly{Lat: lat}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// mgSource is MG.C, whose footprint exceeds 1 GB, at n records.
func mgSource(t *testing.T, n uint64) trace.Source {
	t.Helper()
	g, err := workload.NewProgram("MG.C", 5)
	if err != nil {
		t.Fatal(err)
	}
	return trace.NewLimit(g, n)
}

func newMigratingModel(t *testing.T) *MigratingModel {
	t.Helper()
	mm, err := NewMigratingModel(config.TableIILatencies(), 1*addr.GiB, 8*addr.GiB, 4*addr.MiB, 10000)
	if err != nil {
		t.Fatal(err)
	}
	return mm
}

func TestMigratingModelBetweenStaticAndIdeal(t *testing.T) {
	lat := config.TableIILatencies()
	const n = 400000
	mm := newMigratingModel(t)
	res, err := Run(mgSource(t, n), n, 0, config.SRAMHierarchy(), DefaultModel(),
		StaticSplit{Lat: lat, OnBytes: 1 * addr.GiB}, mm, AllOn{Lat: lat})
	if err != nil {
		t.Fatal(err)
	}
	static, mig, ideal := res[0], res[1], res[2]
	// MG.C's footprint exceeds 1 GB, so static mapping leaves hot data
	// off-package; migration must improve on it, and the ideal bounds it.
	if mig.IPC < static.IPC {
		t.Fatalf("migration IPC %.4f below static %.4f", mig.IPC, static.IPC)
	}
	if mig.IPC > ideal.IPC {
		t.Fatalf("migration IPC %.4f above the ideal %.4f", mig.IPC, ideal.IPC)
	}
	if mm.Migrator().Stats().SwapsCompleted == 0 {
		t.Fatal("migrating model never swapped")
	}
}

// TestRunSharesOneWalk checks that pricing several memory models in one
// hierarchy walk gives each model exactly the Result of a run with that
// model alone, over a trace long enough for the L4 to evict and the
// migrating model to complete swaps, with a warmup.
func TestRunSharesOneWalk(t *testing.T) {
	lat := config.TableIILatencies()
	levels := config.SRAMHierarchy()
	const n, warmup = 300000, 100000
	models := func() []MemoryModel {
		l4, err := NewL4Backed(lat, 4*addr.MiB)
		if err != nil {
			t.Fatal(err)
		}
		return []MemoryModel{l4, StaticSplit{Lat: lat, OnBytes: 1 * addr.GiB}, newMigratingModel(t)}
	}
	shared := models()
	got, err := Run(mgSource(t, n+warmup), n, warmup, levels, DefaultModel(), shared...)
	if err != nil {
		t.Fatal(err)
	}
	if ev := shared[0].(*L4Backed).L4.Stats().Evictions; ev == 0 {
		t.Fatal("the L4 never evicted")
	}
	if sw := shared[2].(*MigratingModel).Migrator().Stats().SwapsCompleted; sw == 0 {
		t.Fatal("the migrating model never swapped")
	}
	for i, mem := range models() {
		alone, err := Run(mgSource(t, n+warmup), n, warmup, levels, DefaultModel(), mem)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != alone[0] {
			t.Errorf("%s: shared walk %+v, alone %+v", mem.Name(), got[i], alone[0])
		}
	}
}
