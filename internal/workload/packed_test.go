package workload

import (
	"testing"

	"heteromem/internal/trace"
)

// TestGeneratorBatchSizeInvariance pins the generator stream to be
// independent of how it is cut into batches: one-record batches and
// uneven, growing batch sizes must consume the RNG identically and emit
// the same records, for every registered workload.
func TestGeneratorBatchSizeInvariance(t *testing.T) {
	const n = 20_000
	for _, name := range append(Names(), ProgramNames()...) {
		single, err := newAny(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		batched, err := newAny(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		var one, b trace.Batch
		one.Resize(1)
		got := 0
		size := 1
		for got < n {
			if size > n-got {
				size = n - got
			}
			b.Resize(size)
			k, err := batched.NextBatch(&b)
			if err != nil || k != size {
				t.Fatalf("%s: NextBatch(%d) = %d, %v", name, size, k, err)
			}
			for i := 0; i < k; i++ {
				if _, err := single.NextBatch(&one); err != nil {
					t.Fatal(err)
				}
				if b.Record(i) != one.Record(0) {
					t.Fatalf("%s: record %d = %+v, want %+v", name, got+i, b.Record(i), one.Record(0))
				}
			}
			got += k
			size = size*3 + 1 // uneven, growing batch sizes
		}
	}
}

// newAny resolves name in either workload registry.
func newAny(name string, seed int64) (*Generator, error) {
	if g, err := NewMemory(name, seed); err == nil {
		return g, nil
	}
	return NewProgram(name, seed)
}

// TestPackedCompressionRatio pins the tentpole's size target: the packed
// form of real workload traces must be at least 4x smaller than the
// equivalent []trace.Record (24 bytes per record in memory).
func TestPackedCompressionRatio(t *testing.T) {
	const n = 100_000
	for _, name := range []string{"SPEC2006", "FT", "pgbench", "EP.C", "CG.C"} {
		gen, err := newAny(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		p, err := trace.Pack(gen, n)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumRecords() != n {
			t.Fatalf("%s: packed %d records, want %d", name, p.NumRecords(), n)
		}
		raw := uint64(n) * 24
		if ratio := float64(raw) / float64(p.EncodedBytes()); ratio < 4 {
			t.Errorf("%s: packed %d bytes for %d raw (%.2fx), want >= 4x", name, p.EncodedBytes(), raw, ratio)
		} else {
			t.Logf("%s: %.2fx (%.2f B/record)", name, ratio, float64(p.EncodedBytes())/n)
		}
	}
}

// TestPackedGeneratorRoundTrip checks pack -> decode equality against the
// generator stream itself (the form the experiment drivers replay).
func TestPackedGeneratorRoundTrip(t *testing.T) {
	const n = 50_000
	gen, err := NewMemory("SPEC2006", 9)
	if err != nil {
		t.Fatal(err)
	}
	p, err := trace.Pack(gen, n)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewMemory("SPEC2006", 9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.Collect(ref, n)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.Collect(trace.NewPackedSource(p), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("decoded %d records, want %d", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
