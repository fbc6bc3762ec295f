package workload

import (
	"heteromem/internal/rng"
	"testing"

	"heteromem/internal/addr"
	"heteromem/internal/trace"
)

func TestAllMemorySpecsBuild(t *testing.T) {
	for _, name := range Names() {
		gen, err := NewMemory(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fp := gen.Footprint()
		if fp <= 2*addr.GiB {
			t.Errorf("%s: footprint %d, paper requires > 2GB", name, fp)
		}
		if fp >= 4*addr.GiB {
			t.Errorf("%s: footprint %d exceeds the 4GB simulated memory", name, fp)
		}
		// Records stay in range, cycles are monotonic.
		recs, err := trace.Collect(gen, 20000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var last uint64
		for _, rec := range recs {
			if rec.Addr >= fp {
				t.Fatalf("%s: addr %#x beyond footprint %#x", name, rec.Addr, fp)
			}
			if rec.Cycle < last {
				t.Fatalf("%s: cycles not monotonic", name)
			}
			last = rec.Cycle
			if rec.CPU > 3 {
				t.Fatalf("%s: cpu %d out of range", name, rec.CPU)
			}
		}
	}
}

func TestAllProgramSpecsBuild(t *testing.T) {
	for _, name := range ProgramNames() {
		gen, err := NewProgram(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		recs, err := trace.Collect(gen, 5000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, rec := range recs {
			if rec.Addr >= gen.Footprint() {
				t.Fatalf("%s: addr out of range", name)
			}
		}
	}
}

func TestTableIFootprintSplit(t *testing.T) {
	// The paper: exactly 7 of the 10 NPB workloads fit in 1 GB; the three
	// that do not are DC.B, FT.C, and MG.C.
	fits := 0
	big := map[string]bool{}
	for name, fp := range TableIFootprints() {
		if fp < 1*addr.GiB {
			fits++
		} else {
			big[name] = true
		}
	}
	if fits != 7 {
		t.Fatalf("%d workloads fit in 1GB, want 7", fits)
	}
	for _, name := range []string{"DC.B", "FT.C", "MG.C"} {
		if !big[name] {
			t.Errorf("%s should exceed 1GB", name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := NewMemory("pgbench", 42)
	b, _ := NewMemory("pgbench", 42)
	ra, _ := trace.Collect(a, 10000)
	rb, _ := trace.Collect(b, 10000)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("record %d diverged: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, _ := NewMemory("pgbench", 1)
	b, _ := NewMemory("pgbench", 2)
	ra, _ := trace.Collect(a, 1000)
	rb, _ := trace.Collect(b, 1000)
	same := 0
	for i := range ra {
		if ra[i].Addr == rb[i].Addr {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("seeds 1 and 2 produced %d/1000 identical addresses", same)
	}
}

func TestUnknownWorkloads(t *testing.T) {
	if _, err := NewMemory("nope", 1); err == nil {
		t.Fatal("unknown memory workload accepted")
	}
	if _, err := NewProgram("nope", 1); err == nil {
		t.Fatal("unknown program workload accepted")
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Name: "no-components", MeanGap: 10},
		{Name: "no-gap", Components: []Component{{Name: "x", Weight: 1, Region: 4096, Make: SeqMaker(64)}}},
		{Name: "zero-weight", MeanGap: 10, Components: []Component{{Name: "x", Weight: 0, Region: 4096, Make: SeqMaker(64)}}},
		{Name: "zero-region", MeanGap: 10, Components: []Component{{Name: "x", Weight: 1, Region: 0, Make: SeqMaker(64)}}},
	}
	for _, spec := range bad {
		if _, err := New(spec, 1); err == nil {
			t.Errorf("spec %q accepted", spec.Name)
		}
	}
}

func TestWriteFractionRespected(t *testing.T) {
	spec := Spec{
		Name: "w", MeanGap: 10,
		Components: []Component{{Name: "x", Weight: 1, Region: 1 << 20, WriteFrac: 0.5, Make: UniformMaker()}},
	}
	gen, err := New(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	const n = 10000
	recs, _ := trace.Collect(gen, n)
	for _, rec := range recs {
		if rec.Write {
			writes++
		}
	}
	if writes < n*4/10 || writes > n*6/10 {
		t.Fatalf("writes = %d/%d, want ~50%%", writes, n)
	}
}

func TestZipfSkew(t *testing.T) {
	r := rng.New(5)
	z := newZipfStream(r, 1<<24, 4096, 1.3, false)
	counts := map[uint64]int{}
	for i := 0; i < 100000; i++ {
		counts[z.next(r)/4096]++
	}
	// The hottest block must carry far more than a uniform share.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	uniform := 100000 / (1 << 12)
	if max < uniform*20 {
		t.Fatalf("hottest block %d accesses, uniform share %d: not skewed", max, uniform)
	}
}

func TestSeqStreamWraps(t *testing.T) {
	s := &seqStream{size: 256, stride: 64}
	seen := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		seen[s.next(nil)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("wrap produced %d distinct addresses, want 4", len(seen))
	}
}

func TestDriftStreamMovesHotRegion(t *testing.T) {
	r := rng.New(5)
	d := &driftStream{
		inner:  &seqStream{size: 4096, stride: 64},
		window: 1 << 24, span: 4096, period: 100,
	}
	first := d.next(r)
	var moved bool
	for i := 0; i < 1000; i++ {
		a := d.next(r)
		if a/4096 != first/4096 && a-first > 8192 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("drift stream never moved its base")
	}
}

func TestDriftStreamSlideWraps(t *testing.T) {
	r := rng.New(5)
	d := &driftStream{
		inner:  &seqStream{size: 1024, stride: 64},
		window: 8192, span: 1024, period: 10, slide: 2048,
	}
	for i := 0; i < 500; i++ {
		if a := d.next(r); a >= 8192+1024 {
			t.Fatalf("slide escaped the window: %d", a)
		}
	}
}

func TestVCycleStaysInRegion(t *testing.T) {
	v := newVCycleStream(1<<24, 4, 64)
	r := rng.New(5)
	for i := 0; i < 100000; i++ {
		if a := v.next(r); a >= 1<<24 {
			t.Fatalf("v-cycle address %d out of region", a)
		}
	}
}

func TestMemoryWorkloadCharacter(t *testing.T) {
	// Validate via trace analysis that each Section IV workload has the
	// structure its spec claims: footprint growth for streaming workloads,
	// a bounded instantaneous working set for skewed ones, and the paper's
	// stated write mixes within tolerance.
	type expect struct {
		maxWSSMB  float64 // bound on per-window working set (256K-access windows)
		writeFrac [2]float64
	}
	expects := map[string]expect{
		"FT":       {maxWSSMB: 170, writeFrac: [2]float64{0.30, 0.55}},
		"MG":       {maxWSSMB: 130, writeFrac: [2]float64{0.20, 0.40}},
		"pgbench":  {maxWSSMB: 60, writeFrac: [2]float64{0.25, 0.45}},
		"indexer":  {maxWSSMB: 60, writeFrac: [2]float64{0.20, 0.45}},
		"SPECjbb":  {maxWSSMB: 120, writeFrac: [2]float64{0.25, 0.50}},
		"SPEC2006": {maxWSSMB: 60, writeFrac: [2]float64{0.20, 0.45}},
	}
	for _, name := range Names() {
		gen, err := NewMemory(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		a, err := trace.Analyze(trace.NewLimit(gen, 512*1024), 256*1024, 4096)
		if err != nil {
			t.Fatal(err)
		}
		e := expects[name]
		ws := a.WriteShare()
		if ws < e.writeFrac[0] || ws > e.writeFrac[1] {
			t.Errorf("%s: write share %.2f outside [%.2f, %.2f]", name, ws, e.writeFrac[0], e.writeFrac[1])
		}
		for i, w := range a.Windows {
			wss := float64(w.UniqueHot*4096) / (1 << 20)
			if wss > e.maxWSSMB {
				t.Errorf("%s window %d: WSS %.1f MB exceeds expected bound %.1f MB",
					name, i, wss, e.maxWSSMB)
			}
		}
		if a.MeanGap < 20 || a.MeanGap > 80 {
			t.Errorf("%s: mean gap %.1f cycles outside the plausible post-L3 range", name, a.MeanGap)
		}
	}
}
