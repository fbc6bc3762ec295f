package heteromem

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
)

func TestDefaultsBuild(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunWorkload("SPEC2006", 1, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 30000 || res.MeanDRAMLatency <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestMigrationConfig(t *testing.T) {
	sys, err := New(Config{
		MacroPageSize: 64 * KiB,
		Migration:     Migration{Enabled: true, Design: DesignLive, SwapInterval: 1000},
		Warmup:        20000,
		MeterPower:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunWorkload("SPEC2006", 1, 120000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Migration.SwapsCompleted == 0 {
		t.Fatal("no swaps under migration config")
	}
	if res.NormalizedPower <= 0 {
		t.Fatal("power not metered")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{MacroPageSize: 3 * MiB}); err == nil {
		t.Fatal("invalid page size accepted")
	}
	if _, err := New(Config{Migration: Migration{Enabled: true}}); err == nil {
		t.Fatal("zero swap interval accepted")
	}
	if _, err := New(Config{TotalCapacity: 1 * GiB, OnPackageCapacity: 1 * GiB}); err == nil {
		t.Fatal("on-package == total accepted")
	}
}

func TestUnknownWorkload(t *testing.T) {
	sys, _ := New(Config{})
	if _, err := sys.RunWorkload("nope", 1, 10); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestWorkloadLists(t *testing.T) {
	if len(Workloads()) != 6 {
		t.Fatalf("%d trace workloads, want 6", len(Workloads()))
	}
	if len(ProgramWorkloads()) != 10 {
		t.Fatalf("%d program workloads, want 10", len(ProgramWorkloads()))
	}
}

func TestHardwareBitsExported(t *testing.T) {
	if got := HardwareBits(1*GiB, 4*MiB, 4*KiB); got != 9228 {
		t.Fatalf("HardwareBits = %d, want 9228", got)
	}
}

func TestCustomWorkload(t *testing.T) {
	spec := WorkloadSpec{
		Name: "custom", MeanGap: 50, Cores: 2,
		Components: []WorkloadComponent{
			{Name: "hot", Weight: 8, Region: 64 * MiB, Make: ZipfMaker(4096, 1.3, true)},
			{Name: "scan", Weight: 2, Region: 512 * MiB, Make: SeqMaker(64)},
		},
	}
	gen, err := NewGenerator(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{
		TotalCapacity:     1 * GiB,
		OnPackageCapacity: 128 * MiB,
		MacroPageSize:     256 * KiB,
		Migration:         Migration{Enabled: true, Design: DesignN1, SwapInterval: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(gen, 60000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.OnShare <= 0 {
		t.Fatal("nothing routed on-package")
	}
}

func TestEffectivenessExported(t *testing.T) {
	if Effectiveness(200, 60, 60) != 100 {
		t.Fatal("effectiveness miscomputed")
	}
}

func TestMemoryWorkloadInspectable(t *testing.T) {
	spec, err := MemoryWorkload("FT")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Footprint() == 0 || len(spec.Components) == 0 {
		t.Fatal("FT spec empty")
	}
}

func TestSystemIsReusable(t *testing.T) {
	// Each Run starts from a fresh controller: results for the same inputs
	// must be identical, not influenced by earlier runs.
	sys, err := New(Config{
		MacroPageSize: 64 * KiB,
		Migration:     Migration{Enabled: true, Design: DesignLive, SwapInterval: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.RunWorkload("SPEC2006", 1, 50000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.RunWorkload("SPEC2006", 1, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanDRAMLatency != b.MeanDRAMLatency || a.Report.OnShare != b.Report.OnShare {
		t.Fatalf("runs diverged: %.3f/%.3f vs %.3f/%.3f",
			a.MeanDRAMLatency, a.Report.OnShare, b.MeanDRAMLatency, b.Report.OnShare)
	}
}

// TestRunContextCheckpointResume drives the façade's checkpoint path:
// RunContext with Checkpointing over a NewGenerator source takes
// checkpoints without changing the Result, a resume from a middle
// checkpoint on a fresh generator reproduces the uninterrupted Run, and a
// resume under another Config fails with ErrConfigMismatch.
func TestRunContextCheckpointResume(t *testing.T) {
	const records = 60_000
	cfg := Config{
		MacroPageSize: 64 * KiB,
		Migration:     Migration{Enabled: true, Design: DesignLive, SwapInterval: 1000},
		Warmup:        10_000,
		MeterPower:    true,
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := MemoryWorkload("pgbench")
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() Source {
		gen, err := NewGenerator(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		return gen
	}
	marshal := func(res Result, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	want := marshal(sys.Run(fresh(), records))
	if byName := marshal(sys.RunWorkload("pgbench", 1, records)); !bytes.Equal(byName, want) {
		t.Fatal("Run over NewGenerator(MemoryWorkload(name), seed) differs from RunWorkload")
	}
	var ckpts [][]byte
	var at []uint64
	sink := func(data []byte, n uint64) error {
		ckpts = append(ckpts, data)
		at = append(at, n)
		return nil
	}
	ctx := context.Background()
	if got := marshal(sys.RunContext(ctx, fresh(), records, Checkpointing{Every: 15_000, Sink: sink})); !bytes.Equal(got, want) {
		t.Error("checkpointing changed the Result")
	}
	if len(ckpts) < 3 {
		t.Fatalf("took %d checkpoints (at %v), want at least 3", len(ckpts), at)
	}
	mid := len(ckpts) / 2
	info, err := InspectCheckpoint(ckpts[mid])
	if err != nil || info.Records != at[mid] {
		t.Fatalf("InspectCheckpoint = %+v, %v; want Records %d", info, err, at[mid])
	}
	if got := marshal(sys.RunContext(ctx, fresh(), records, Checkpointing{Resume: ckpts[mid]})); !bytes.Equal(got, want) {
		t.Errorf("resume from the checkpoint at record %d differs from the uninterrupted run\n got: %.200s\nwant: %.200s", at[mid], got, want)
	}

	cfg.Migration.SwapInterval = 2000
	other, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.RunContext(ctx, fresh(), records, Checkpointing{Resume: ckpts[mid]}); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("resume under another Config: err = %v, want ErrConfigMismatch", err)
	}
}
