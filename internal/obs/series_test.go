package obs

import (
	"math"
	"testing"
)

func TestNilSeriesSamplerIsSafe(t *testing.T) {
	var s *SeriesSampler
	s.Record(EpochSample{Epoch: 1})
	if s.Samples() != nil || s.Total() != 0 || s.Dropped() != 0 {
		t.Fatal("nil sampler must be a no-op sink")
	}
}

func TestSeriesSamplerKeepsTail(t *testing.T) {
	s := NewSeriesSampler(3)
	for i := uint64(1); i <= 5; i++ {
		s.Record(EpochSample{Epoch: i, Cycle: int64(i * 100)})
	}
	got := s.Samples()
	if len(got) != 3 {
		t.Fatalf("retained %d samples, want 3", len(got))
	}
	// The ring keeps the LAST samples: the tail of the trajectory and the
	// reconciling final record always survive.
	for i, want := range []uint64{3, 4, 5} {
		if got[i].Epoch != want {
			t.Fatalf("sample %d epoch = %d, want %d", i, got[i].Epoch, want)
		}
	}
	if s.Total() != 5 || s.Dropped() != 2 {
		t.Fatalf("total=%d dropped=%d, want 5/2", s.Total(), s.Dropped())
	}
}

func TestSeriesSamplerMinimumCapacity(t *testing.T) {
	s := NewSeriesSampler(-1)
	s.Record(EpochSample{Epoch: 1})
	s.Record(EpochSample{Epoch: 2})
	got := s.Samples()
	if len(got) != 1 || got[0].Epoch != 2 {
		t.Fatalf("samples = %+v, want just epoch 2", got)
	}
	if s.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", s.Dropped())
	}
}

func TestEpochSampleDerivedRates(t *testing.T) {
	var zero EpochSample
	if zero.OnShare() != 0 || zero.MeanDRAMLatency() != 0 || zero.MeanQueueLatency() != 0 {
		t.Fatal("zero sample rates must be 0, not NaN")
	}
	s := EpochSample{
		AccOn: 75, AccOff: 25,
		DRAMLatSum: 4000, DRAMLatN: 100, QueueLatSum: 1000,
	}
	if got := s.OnShare(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("OnShare = %v", got)
	}
	if got := s.MeanDRAMLatency(); math.Abs(got-40) > 1e-9 {
		t.Fatalf("MeanDRAMLatency = %v", got)
	}
	if got := s.MeanQueueLatency(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("MeanQueueLatency = %v", got)
	}
	if got := s.MeanDeviceLatency(); math.Abs(got-30) > 1e-9 {
		t.Fatalf("MeanDeviceLatency = %v", got)
	}
}

func TestRegistrySeriesLifecycle(t *testing.T) {
	var nilReg *Registry
	if nilReg.EnableSeries(16) != nil || nilReg.Series() != nil {
		t.Fatal("nil registry must return nil sampler")
	}
	r := NewRegistry()
	if r.Series() != nil {
		t.Fatal("series must be off until enabled")
	}
	s := r.EnableSeries(16)
	if s == nil || r.Series() != s {
		t.Fatal("EnableSeries must attach and return the sampler")
	}
	if again := r.EnableSeries(99); again != s {
		t.Fatal("EnableSeries must be idempotent")
	}
}

func BenchmarkSeriesRecord(b *testing.B) {
	s := NewSeriesSampler(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Record(EpochSample{Epoch: uint64(i), Cycle: int64(i)})
	}
}
