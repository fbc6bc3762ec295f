package stats

import (
	"math/rand"
	"testing"
)

// TestHistogramMergeMatchesCombinedStream: merging per-shard histograms
// must equal the histogram of the combined stream, so a sharded P95 is
// exactly the unsharded one.
func TestHistogramMergeMatchesCombinedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var combined Histogram
	parts := make([]Histogram, 3)
	for i := 0; i < 10_000; i++ {
		v := int64(rng.Intn(1 << 20))
		combined.Add(v)
		parts[i%3].Add(v)
	}
	var merged Histogram
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged.Total() != combined.Total() {
		t.Fatalf("Total = %d, want %d", merged.Total(), combined.Total())
	}
	for i := 0; i < 64; i++ {
		if merged.Bucket(i) != combined.Bucket(i) {
			t.Fatalf("bucket %d = %d, want %d", i, merged.Bucket(i), combined.Bucket(i))
		}
	}
	for _, p := range []float64{50, 95, 99} {
		if got, want := merged.Percentile(p), combined.Percentile(p); got != want {
			t.Fatalf("P%g = %d, want %d", p, got, want)
		}
	}
}

// TestLatencyStatMergeFoldOrderIndependent: the Welford-state combination
// used by the hub report must give bit-identical moments regardless of the
// channel fold order (the shards themselves always fold in channel order;
// this pins that the merge would be safe even if they did not).
func TestLatencyStatMergeFoldOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	parts := make([]LatencyStat, 4)
	for i := 0; i < 20_000; i++ {
		parts[i%4].Add(int64(rng.Intn(1 << 16)))
	}
	fold := func(order []int) LatencyStat {
		var total LatencyStat
		for _, i := range order {
			total.Merge(parts[i])
		}
		return total
	}
	want := fold([]int{0, 1, 2, 3})
	got := fold([]int{0, 1, 2, 3})
	if got != want {
		t.Fatal("identical folds differ")
	}
	// Count/Sum/Min/Max are exactly order-independent; the variance term is
	// floating point, so a different order must still agree to full display
	// precision even if the last ulp differs.
	other := fold([]int{3, 1, 0, 2})
	if other.Count() != want.Count() || other.Sum() != want.Sum() ||
		other.Min() != want.Min() || other.Max() != want.Max() {
		t.Fatalf("shuffled fold moments differ: %v vs %v", other, want)
	}
	if other.String() != want.String() {
		t.Fatalf("shuffled fold renders differently: %s vs %s", other.String(), want.String())
	}
}
