package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLatencyStatBasics(t *testing.T) {
	var s LatencyStat
	for _, v := range []int64{10, 20, 30} {
		s.Add(v)
	}
	if s.Count() != 3 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Mean() != 20 {
		t.Fatalf("mean = %f, want 20", s.Mean())
	}
	if s.Min() != 10 || s.Max() != 30 {
		t.Fatalf("min/max = %d/%d", s.Min(), s.Max())
	}
	wantSD := math.Sqrt(200.0 / 3.0)
	if math.Abs(s.StdDev()-wantSD) > 1e-9 {
		t.Fatalf("sd = %f, want %f", s.StdDev(), wantSD)
	}
}

func TestLatencyStatEmpty(t *testing.T) {
	var s LatencyStat
	if s.Mean() != 0 || s.StdDev() != 0 || s.Count() != 0 {
		t.Fatal("empty accumulator must report zeros")
	}
}

func TestLatencyStatMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var all, a, b LatencyStat
	for i := 0; i < 1000; i++ {
		v := int64(rng.Intn(10000))
		all.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	if a.Count() != all.Count() {
		t.Fatalf("merged count %d != %d", a.Count(), all.Count())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-9 {
		t.Fatalf("merged mean %f != %f", a.Mean(), all.Mean())
	}
	if math.Abs(a.StdDev()-all.StdDev()) > 1e-6 {
		t.Fatalf("merged sd %f != %f", a.StdDev(), all.StdDev())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatal("merged min/max wrong")
	}
}

func TestLatencyStatMergeEmpty(t *testing.T) {
	var a, b LatencyStat
	a.Add(5)
	a.Merge(b) // merging empty is a no-op
	if a.Count() != 1 || a.Mean() != 5 {
		t.Fatal("merge with empty changed stats")
	}
	b.Merge(a) // merging into empty copies
	if b.Count() != 1 || b.Mean() != 5 {
		t.Fatal("merge into empty did not copy")
	}
}

func TestHistogramPercentile(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Add(i)
	}
	if h.Total() != 1000 {
		t.Fatalf("total = %d", h.Total())
	}
	// p50 of 1..1000 is <= 512's bucket top edge (1024).
	if p := h.Percentile(50); p < 256 || p > 1024 {
		t.Fatalf("p50 = %d, want within (256,1024]", p)
	}
	if p99, p50 := h.Percentile(99), h.Percentile(50); p99 < p50 {
		t.Fatalf("p99 %d < p50 %d", p99, p50)
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	var h Histogram
	h.Add(-5)
	if h.Total() != 1 || h.Bucket(0) != 1 {
		t.Fatal("negative sample not clamped to bucket 0")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Name", "Value")
	tbl.AddRow("x", "1")
	tbl.AddRowf("yyyy", 2.5)
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, rule, 2 rows
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Name") {
		t.Fatalf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[3], "2.5") {
		t.Fatalf("float row missing: %q", lines[3])
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
}

func TestTableRowWidthMismatch(t *testing.T) {
	tbl := NewTable("A", "B")
	tbl.AddRow("only-one")
	tbl.AddRow("one", "two", "three-dropped")
	out := tbl.String()
	if strings.Contains(out, "three-dropped") {
		t.Fatal("extra cell should be dropped")
	}
}

// Property: mean is always within [min, max].
func TestMeanWithinBounds(t *testing.T) {
	f := func(vs []int64) bool {
		if len(vs) == 0 {
			return true
		}
		var s LatencyStat
		for _, v := range vs {
			s.Add(v % 100000)
		}
		return s.Mean() >= float64(s.Min()) && s.Mean() <= float64(s.Max())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: merge order does not change the result.
func TestMergeCommutative(t *testing.T) {
	f := func(xs, ys []int64) bool {
		var a1, b1, a2, b2 LatencyStat
		for _, v := range xs {
			a1.Add(v % 1000)
			a2.Add(v % 1000)
		}
		for _, v := range ys {
			b1.Add(v % 1000)
			b2.Add(v % 1000)
		}
		a1.Merge(b1)
		b2.Merge(a2)
		return a1.Count() == b2.Count() &&
			math.Abs(a1.Mean()-b2.Mean()) < 1e-9 &&
			math.Abs(a1.StdDev()-b2.StdDev()) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBucketOfMatchesShiftLoop compares bucketOf with the shift loop it
// replaced at 0 and at every power-of-two edge, one either side.
func TestBucketOfMatchesShiftLoop(t *testing.T) {
	loop := func(v uint64) int {
		b := 0
		for v > 1 {
			v >>= 1
			b++
		}
		return b
	}
	vs := []uint64{0, math.MaxUint64}
	for i := range 64 {
		p := uint64(1) << i
		vs = append(vs, p-1, p, p+1)
	}
	for _, v := range vs {
		if got, want := bucketOf(v), loop(v); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
}
