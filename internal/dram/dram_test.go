package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"heteromem/internal/config"
)

func newTestDevice(t *testing.T, channels, banks int) *Device {
	t.Helper()
	d, err := New(Geometry{
		Channels: channels, BanksPerCh: banks,
		RowBytes: 8192, BurstBytes: 64,
	}, config.OffPackageTiming())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	bad := []Geometry{
		{Channels: 3, BanksPerCh: 8, RowBytes: 8192, BurstBytes: 64}, // non-pow2 channels
		{Channels: 4, BanksPerCh: 6, RowBytes: 8192, BurstBytes: 64}, // non-pow2 banks
		{Channels: 4, BanksPerCh: 8, RowBytes: 100, BurstBytes: 64},  // row not multiple
		{Channels: 0, BanksPerCh: 8, RowBytes: 8192, BurstBytes: 64}, // zero channels
		{Channels: 4, BanksPerCh: 8, RowBytes: 8192, BurstBytes: 0},  // zero burst
		{Channels: 4, BanksPerCh: 8, RowBytes: 6144, BurstBytes: 48}, // non-pow2 burst
	}
	for i, g := range bad {
		if _, err := New(g, config.OffPackageTiming()); err == nil {
			t.Errorf("case %d: geometry %+v accepted", i, g)
		}
	}
}

func TestFirstAccessPaysActivation(t *testing.T) {
	d := newTestDevice(t, 1, 8)
	tm := d.Timing()
	done, core := d.Service(0, false, 0)
	want := tm.TRCD + tm.TCL + tm.TBurst
	if done != want {
		t.Fatalf("cold access done = %d, want %d (TRCD+TCL+TBurst)", done, want)
	}
	if core != want {
		t.Fatalf("core latency = %d, want %d", core, want)
	}
	hits, misses, conf, _ := d.Stats()
	if hits != 0 || misses != 1 || conf != 0 {
		t.Fatalf("stats = %d/%d/%d, want 0/1/0", hits, misses, conf)
	}
}

func TestRowHitsPipelineAtBurstRate(t *testing.T) {
	d := newTestDevice(t, 1, 8)
	tm := d.Timing()
	var prev int64 = -1
	// Sequential lines in the same row: after the first access, completions
	// must be spaced exactly TBurst apart (bus-rate streaming).
	for i := 0; i < 16; i++ {
		done, _ := d.Service(uint64(i*64), false, 0)
		if prev >= 0 && done-prev != tm.TBurst {
			t.Fatalf("access %d: spacing %d, want TBurst=%d", i, done-prev, tm.TBurst)
		}
		prev = done
	}
	hits, misses, _, _ := d.Stats()
	if misses != 1 || hits != 15 {
		t.Fatalf("hits/misses = %d/%d, want 15/1", hits, misses)
	}
}

func TestRowConflictPaysPrechargeAndWriteRecovery(t *testing.T) {
	d := newTestDevice(t, 1, 1) // single bank: easy conflicts
	tm := d.Timing()
	rowStride := uint64(8192)         // next row, same bank (1 channel, 1 bank)
	_, core0 := d.Service(0, true, 0) // write opens row 0
	if core0 != tm.TRCD+tm.TCL+tm.TBurst {
		t.Fatalf("first core latency %d", core0)
	}
	_, core1 := d.Service(rowStride, false, 1000)
	want := tm.TRP + tm.TRCD + tm.TWR + tm.TCL + tm.TBurst // conflict after write
	if core1 != want {
		t.Fatalf("conflict-after-write core latency = %d, want %d", core1, want)
	}
	_, _, conf, _ := d.Stats()
	if conf != 1 {
		t.Fatalf("conflicts = %d, want 1", conf)
	}
}

func TestRowHitDetection(t *testing.T) {
	d := newTestDevice(t, 2, 8)
	a := uint64(4096)
	if d.RowHit(d.Decode(a)) {
		t.Fatal("cold device cannot row-hit")
	}
	d.Service(a, false, 0)
	if !d.RowHit(d.Decode(a)) {
		t.Fatal("same address must row-hit after access")
	}
	if !d.RowHit(d.Decode(a + 64)) {
		// a+64 maps to a different channel at line interleave, so it may
		// not share the row; use a same-channel neighbor instead.
		b := a + 64*uint64(d.Geometry().Channels)
		if d.Decode(b).Channel == d.Decode(a).Channel && d.Decode(b).Row == d.Decode(a).Row && !d.RowHit(d.Decode(b)) {
			t.Fatal("same-row neighbor must row-hit")
		}
	}
}

// divisionDecode is Decode as first written, dividing by the burst size and
// recomputing every field width per call: the reference the shift-based
// Decode must reproduce bit for bit.
func divisionDecode(g Geometry, a uint64) Location {
	log2 := func(v uint64) uint {
		var n uint
		for v > 1 {
			v >>= 1
			n++
		}
		return n
	}
	line := a / g.BurstBytes
	chanBits := log2(uint64(g.Channels))
	colBits := log2(g.RowBytes / g.BurstBytes)
	bankBits := log2(uint64(g.BanksPerCh))
	row := int64(line >> (chanBits + colBits + bankBits))
	b := int((line>>(chanBits+colBits) ^ uint64(row)) & (uint64(g.BanksPerCh) - 1))
	ch := int((line ^ uint64(row)) & uint64(g.Channels-1))
	return Location{Channel: ch, Bank: b, Row: row}
}

func TestDecodeMatchesDivisionReference(t *testing.T) {
	tg := config.TraceGeometry()
	geoms := map[string]Geometry{
		"on-package":  {Channels: tg.OnChannels, BanksPerCh: tg.OnBanksPerCh, RowBytes: tg.RowSize, BurstBytes: tg.BurstBytes},
		"off-package": {Channels: tg.OffChannels, BanksPerCh: tg.OffBanksPerCh, RowBytes: tg.RowSize, BurstBytes: tg.BurstBytes},
		"1ch-1bank":   {Channels: 1, BanksPerCh: 1, RowBytes: 8192, BurstBytes: 64},
	}
	rng := rand.New(rand.NewSource(1))
	for name, g := range geoms {
		d, err := New(g, config.OffPackageTiming())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 20000; i++ {
			a := rng.Uint64()
			if i%2 == 0 {
				a %= 8 << 30 // dense in the simulated capacity range
			}
			if got, want := d.Decode(a), divisionDecode(g, a); got != want {
				t.Fatalf("%s: Decode(%#x) = %+v, reference %+v", name, a, got, want)
			}
		}
	}
}

func TestDecodeInRange(t *testing.T) {
	d := newTestDevice(t, 4, 8)
	f := func(a uint64) bool {
		loc := d.Decode(a % (1 << 40))
		return loc.Channel >= 0 && loc.Channel < 4 &&
			loc.Bank >= 0 && loc.Bank < 8 && loc.Row >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPermutationBreaksStrideResonance: a power-of-two stride must not map
// every access to the same (channel, bank) — the XOR permutation must
// spread it.
func TestPermutationBreaksStrideResonance(t *testing.T) {
	d := newTestDevice(t, 4, 8)
	seen := map[[2]int]bool{}
	for i := 0; i < 64; i++ {
		loc := d.Decode(uint64(i) * 256 * 1024)
		seen[[2]int{loc.Channel, loc.Bank}] = true
	}
	if len(seen) < 8 {
		t.Fatalf("256KB stride touched only %d (channel,bank) pairs; resonance not broken", len(seen))
	}
}

func TestSequentialStreamKeepsRowLocality(t *testing.T) {
	d := newTestDevice(t, 4, 8)
	for i := 0; i < 512; i++ { // 32 KB sequential = 8192 B/channel = 1 row
		d.Service(uint64(i*64), false, 0)
	}
	hits, misses, conf, _ := d.Stats()
	if conf != 0 {
		t.Fatalf("sequential stream caused %d row conflicts", conf)
	}
	if hits < misses*10 {
		t.Fatalf("sequential stream: hits=%d misses=%d, want hit-dominated", hits, misses)
	}
}

func TestReserveBusBlocksChannel(t *testing.T) {
	d := newTestDevice(t, 1, 8)
	end := d.ReserveBus(0, 100, 500)
	if end != 600 {
		t.Fatalf("reserve end = %d, want 600", end)
	}
	if d.BusFree(0) != 600 {
		t.Fatalf("bus free = %d, want 600", d.BusFree(0))
	}
	// A data transfer cannot complete before the reservation ends.
	done, _ := d.Service(0, false, 0)
	if done < 600 {
		t.Fatalf("service completed at %d during reservation", done)
	}
}

func TestReset(t *testing.T) {
	d := newTestDevice(t, 2, 8)
	d.Service(0, true, 0)
	d.Reset()
	if h, m, c, b := d.Stats(); h+m+c+b != 0 {
		t.Fatal("stats not cleared")
	}
	if d.BusFree(0) != 0 || d.RowHit(d.Decode(0)) {
		t.Fatal("device state not cleared")
	}
}

func TestRefreshWindowDelaysCommands(t *testing.T) {
	tm := config.WithRefresh(config.OffPackageTiming())
	d, err := New(Geometry{Channels: 1, BanksPerCh: 8, RowBytes: 8192, BurstBytes: 64}, tm)
	if err != nil {
		t.Fatal(err)
	}
	// An access landing inside the first refresh window (t in [0, TRFC))
	// must be pushed to the window's end.
	done, _ := d.Service(0, false, 100)
	wantMin := tm.TRFC + tm.TRCD + tm.TCL + tm.TBurst
	if done < wantMin {
		t.Fatalf("done = %d, want >= %d (pushed past refresh)", done, wantMin)
	}
	if d.RefreshStalls() == 0 {
		t.Fatal("refresh stall not counted")
	}
	// An access between windows is unaffected.
	d2, _ := New(Geometry{Channels: 1, BanksPerCh: 8, RowBytes: 8192, BurstBytes: 64}, tm)
	at := tm.TRFC + 1000
	done2, _ := d2.Service(0, false, at)
	if done2 != at+tm.TRCD+tm.TCL+tm.TBurst {
		t.Fatalf("mid-interval access delayed: done=%d", done2)
	}
}

func TestRefreshDisabledByDefault(t *testing.T) {
	if config.OffPackageTiming().TREFI != 0 {
		t.Fatal("refresh must default off (the paper's evaluation does not model it)")
	}
	d := newTestDevice(t, 1, 8)
	d.Service(0, false, 50)
	if d.RefreshStalls() != 0 {
		t.Fatal("refresh stalls counted with refresh disabled")
	}
}
