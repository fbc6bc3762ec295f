package obs

import (
	"encoding/json"
	"testing"
)

func TestNilSafety(t *testing.T) {
	// A nil registry must hand out nil instruments whose methods all no-op:
	// this is the "metrics disabled" fast path.
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", DefaultLatencyBuckets())
	spans := r.Spans()
	c.Inc()
	c.Add(7)
	g.Set(3)
	g.Add(1)
	h.Observe(100)
	spans.Mark(LaneMigrator, MarkEpoch, 1, 0, 0, 0)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || spans.Total() != 0 {
		t.Fatal("nil instruments recorded something")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry produced a snapshot")
	}
	if r.EnableSpans(8) != nil {
		t.Fatal("nil registry produced a span tracer")
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("swaps")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("swaps") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("depth")
	g.Set(-3)
	g.Add(5)
	if g.Value() != 2 {
		t.Fatalf("gauge = %d, want 2", g.Value())
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 99, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 5000 {
		t.Fatalf("max = %d", h.Max())
	}
	snap := r.Snapshot().Histograms["lat"]
	want := []uint64{2, 3, 0, 1} // <=10: {5,10}; <=100: {11,99,100}; <=1000: {}; overflow: {5000}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if q := h.Quantile(0.5); q != 100 {
		t.Fatalf("median bound = %d, want 100", q)
	}
	if q := h.Quantile(1); q != 5000 {
		t.Fatalf("p100 = %d, want max 5000", q)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(16, 4)
	want := []int64{16, 32, 64, 128}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("memctrl.swap.completed").Add(2)
	r.Gauge("mig.epochs").Set(9)
	r.Histogram("memctrl.qlat.on", []int64{8, 16}).Observe(5)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["memctrl.swap.completed"] != 2 {
		t.Fatalf("roundtrip counters: %v", back.Counters)
	}
	if back.Gauges["mig.epochs"] != 9 {
		t.Fatalf("roundtrip gauges: %v", back.Gauges)
	}
	if h := back.Histograms["memctrl.qlat.on"]; h.Count != 1 || len(h.Counts) != 3 {
		t.Fatalf("roundtrip histogram: %+v", h)
	}
}

func TestSnapshotGetAndString(t *testing.T) {
	var s *Snapshot
	if s.Get("anything") != 0 {
		t.Fatal("nil snapshot Get")
	}
	if s.String() != "<no metrics>" {
		t.Fatal("nil snapshot String")
	}
	r := NewRegistry()
	r.Counter("a").Inc()
	s = r.Snapshot()
	if s.Get("a") != 1 || s.Get("missing") != 0 {
		t.Fatalf("Get: %v", s.Counters)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("x", DefaultLatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 4095))
	}
}
