package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"heteromem/internal/core"
	"heteromem/internal/fault"
	"heteromem/internal/scheme"
	"heteromem/internal/snap"
	"heteromem/internal/trace"
	"heteromem/internal/workload"
)

// equivConfig builds a small but busy run: migration on, warmup reset, and
// enough records for several swaps (and rollbacks, when faults are on).
func equivConfig(design core.Design, faults bool) Config {
	cfg := Default()
	cfg.Migration = &core.Options{Design: design, SwapInterval: 400}
	cfg.MaxRecords = 12_000
	cfg.Warmup = 2_000
	if faults {
		cfg.Fault = fault.Config{
			Seed:       7,
			DeviceRate: 2e-4,
			CopyRate:   2e-3,
			BulkRate:   1e-3,
		}
	}
	return cfg
}

func equivSource(t *testing.T) trace.Source {
	t.Helper()
	gen, err := workload.NewMemory("pgbench", 1)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func canonical(t *testing.T, r Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResumeEquivalence is the subsystem's correctness contract: for every
// design, with fault injection off and on, a run resumed from ANY
// checkpoint boundary produces a Result byte-identical (canonical JSON) to
// the uninterrupted run.
func TestResumeEquivalence(t *testing.T) {
	for _, design := range []core.Design{core.DesignN, core.DesignN1, core.DesignLive} {
		for _, faults := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/faults=%v", design, faults), func(t *testing.T) {
				cfg := equivConfig(design, faults)

				base, err := Run(equivSource(t), cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := canonical(t, base)

				// Checkpoint frequently so boundaries land mid-swap,
				// mid-rollback, and inside the warmup phase.
				cps := map[uint64][]byte{}
				ckCfg := cfg
				ckCfg.CheckpointEvery = 1_000
				ckCfg.CheckpointSink = func(data []byte, n uint64) error {
					cps[n] = append([]byte(nil), data...)
					return nil
				}
				ckRes, err := Run(equivSource(t), ckCfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := canonical(t, ckRes); !bytes.Equal(got, want) {
					t.Fatalf("checkpointing changed the result:\n got %s\nwant %s", got, want)
				}
				if len(cps) == 0 {
					t.Fatal("no checkpoints captured")
				}

				for n, data := range cps {
					resCfg := cfg
					resCfg.Resume = data
					res, err := Run(equivSource(t), resCfg)
					if err != nil {
						t.Fatalf("resume from %d: %v", n, err)
					}
					if got := canonical(t, res); !bytes.Equal(got, want) {
						t.Fatalf("resume from record %d diverged:\n got %s\nwant %s", n, got, want)
					}
				}
			})
		}
	}
}

// TestResumeEquivalenceSchemes extends the correctness contract to every
// cache scheme: resume from any boundary is byte-identical, with the cache
// state (set arrays, tag buffer, predictor counters) and in-flight scheme
// jobs riding the checkpoint.
func TestResumeEquivalenceSchemes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		migrate bool // memcache keeps the migration engine
	}{
		{name: "alloy"},
		{name: "alloy-pred"},
		{name: "cachemode"},
		{name: "memcache", migrate: true},
		{name: "memcache-pred:25", migrate: true},
	} {
		for _, faults := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/faults=%v", tc.name, faults), func(t *testing.T) {
				cfg := equivConfig(core.DesignLive, faults)
				if !tc.migrate {
					cfg.Migration = nil
				}
				sp, err := scheme.Parse(tc.name)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Scheme = sp

				base, err := Run(equivSource(t), cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := canonical(t, base)
				if base.Report.Scheme == nil || base.Report.Scheme.Accesses == 0 {
					t.Fatal("scheme engine saw no traffic")
				}

				cps := map[uint64][]byte{}
				ckCfg := cfg
				ckCfg.CheckpointEvery = 1_000
				ckCfg.CheckpointSink = func(data []byte, n uint64) error {
					cps[n] = append([]byte(nil), data...)
					return nil
				}
				ckRes, err := Run(equivSource(t), ckCfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := canonical(t, ckRes); !bytes.Equal(got, want) {
					t.Fatalf("checkpointing changed the result:\n got %s\nwant %s", got, want)
				}
				if len(cps) == 0 {
					t.Fatal("no checkpoints captured")
				}
				for n, data := range cps {
					resCfg := cfg
					resCfg.Resume = data
					res, err := Run(equivSource(t), resCfg)
					if err != nil {
						t.Fatalf("resume from %d: %v", n, err)
					}
					if got := canonical(t, res); !bytes.Equal(got, want) {
						t.Fatalf("resume from record %d diverged:\n got %s\nwant %s", n, got, want)
					}
				}

				// A scheme checkpoint must not resume under another scheme:
				// the digest carries the spec.
				var anyCp []byte
				for _, data := range cps {
					anyCp = data
					break
				}
				wrong := cfg
				wrong.Scheme = scheme.Spec{}
				if !tc.migrate {
					wrong.Migration = equivConfig(core.DesignLive, faults).Migration
				}
				wrong.Resume = anyCp
				if _, err := Run(equivSource(t), wrong); !errors.Is(err, ErrConfigMismatch) {
					t.Fatalf("cross-scheme resume: got %v, want ErrConfigMismatch", err)
				}
			})
		}
	}
}

// TestResumeEquivalencePositioner exercises the seek-based resume path: a
// SliceSource carries no PRNG state, so the checkpoint stores its record
// index and resume re-seeks it.
func TestResumeEquivalencePositioner(t *testing.T) {
	recs, err := trace.Collect(equivSource(t), 8_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := equivConfig(core.DesignLive, false)
	cfg.MaxRecords = 0
	cfg.Warmup = 1_000

	base, err := Run(trace.NewSliceSource(recs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(t, base)

	cps := map[uint64][]byte{}
	ckCfg := cfg
	ckCfg.CheckpointEvery = 1_500
	ckCfg.CheckpointSink = func(data []byte, n uint64) error {
		cps[n] = append([]byte(nil), data...)
		return nil
	}
	if _, err := Run(trace.NewSliceSource(recs), ckCfg); err != nil {
		t.Fatal(err)
	}
	for n, data := range cps {
		resCfg := cfg
		resCfg.Resume = data
		res, err := Run(trace.NewSliceSource(recs), resCfg)
		if err != nil {
			t.Fatalf("resume from %d: %v", n, err)
		}
		if got := canonical(t, res); !bytes.Equal(got, want) {
			t.Fatalf("resume from record %d diverged", n)
		}
	}
}

// captureOne runs until the first checkpoint and returns it.
func captureOne(t *testing.T, cfg Config) []byte {
	t.Helper()
	var cp []byte
	ckCfg := cfg
	ckCfg.CheckpointEvery = 1_000
	ckCfg.CheckpointSink = func(data []byte, n uint64) error {
		if cp == nil {
			cp = append([]byte(nil), data...)
		}
		return nil
	}
	if _, err := Run(equivSource(t), ckCfg); err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint captured")
	}
	return cp
}

func TestResumeRejectsConfigMismatch(t *testing.T) {
	cfg := equivConfig(core.DesignN1, false)
	cp := captureOne(t, cfg)

	other := cfg
	other.Migration = &core.Options{Design: core.DesignLive, SwapInterval: 400}
	other.Resume = cp
	if _, err := Run(equivSource(t), other); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("resume under different config: err = %v, want ErrConfigMismatch", err)
	}
}

func TestResumeRejectsWrongWorkload(t *testing.T) {
	cfg := equivConfig(core.DesignN1, false)
	cp := captureOne(t, cfg)

	other, err := workload.NewMemory("SPECjbb", 1)
	if err != nil {
		t.Fatal(err)
	}
	resCfg := cfg
	resCfg.Resume = cp
	if _, err := Run(other, resCfg); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("resume under a different workload: err = %v, want a snap.ErrCorrupt identity rejection", err)
	}
}

func TestResumeRejectsCorruption(t *testing.T) {
	cfg := equivConfig(core.DesignN1, false)
	cp := captureOne(t, cfg)

	for name, mangle := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bit-flip": func(b []byte) []byte {
			m := append([]byte(nil), b...)
			m[len(m)/3] ^= 0x40
			return m
		},
		"empty": func(b []byte) []byte { return []byte{} },
	} {
		t.Run(name, func(t *testing.T) {
			bad := cfg
			bad.Resume = mangle(cp)
			_, err := Run(equivSource(t), bad)
			if !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("err = %v, want snap.ErrCorrupt", err)
			}
		})
	}

	t.Run("version-skew", func(t *testing.T) {
		m := append([]byte(nil), cp...)
		m[4]++ // bump the container version field
		bad := cfg
		bad.Resume = m
		var verr *snap.VersionError
		_, err := Run(equivSource(t), bad)
		// The version field is covered by the file checksum, so a raw bump
		// reads as corruption; a resealed container reads as version skew.
		if !errors.As(err, &verr) && !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("err = %v, want VersionError or ErrCorrupt", err)
		}
	})
}

// TestCheckpointRejectsObservability: observability collectors are not
// serialized, so a checkpointed run refuses each of them, on one channel
// and sharded alike.
func TestCheckpointRejectsObservability(t *testing.T) {
	for _, tc := range []struct {
		name   string
		enable func(*Config)
	}{
		{"Metrics", func(c *Config) { c.Metrics = true }},
		{"EventTrace", func(c *Config) { c.EventTrace = 64 }},
		{"SpanTrace", func(c *Config) { c.SpanTrace = 64 }},
		{"EpochSeries", func(c *Config) { c.EpochSeries = 64 }},
	} {
		for _, channels := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/c%d", tc.name, channels), func(t *testing.T) {
				cfg := equivConfig(core.DesignN1, false)
				cfg.Channels = channels
				cfg.CheckpointEvery = 1_000
				cfg.CheckpointSink = func([]byte, uint64) error { return nil }
				tc.enable(&cfg)
				_, err := Run(equivSource(t), cfg)
				if err == nil || !strings.Contains(err.Error(), tc.name) {
					t.Fatalf("err = %v, want a rejection naming %s", err, tc.name)
				}
			})
		}
	}
}

// TestCancelPolledAtCheckpoints: the run loop polls its context at every
// checkpoint boundary, not only every cancelStride records, for every
// channel count. A sink that cancels at the first checkpoint must see no
// second one.
func TestCancelPolledAtCheckpoints(t *testing.T) {
	for _, channels := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("c%d", channels), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := equivConfig(core.DesignLive, false)
			cfg.Channels = channels
			cfg.CheckpointEvery = 1_000
			var taken []uint64
			cfg.CheckpointSink = func(_ []byte, n uint64) error {
				taken = append(taken, n)
				cancel()
				return nil
			}
			if _, err := RunContext(ctx, equivSource(t), cfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if len(taken) != 1 {
				t.Fatalf("checkpoints at records %v, want only the first before the cancel took effect", taken)
			}
		})
	}
}

func TestInspectCheckpoint(t *testing.T) {
	cfg := equivConfig(core.DesignN1, false)
	cp := captureOne(t, cfg)
	info, err := InspectCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 1_000 {
		t.Fatalf("Records = %d, want 1000", info.Records)
	}
	if info.ConfigDigest != ConfigDigest(cfg) {
		t.Fatalf("digest mismatch")
	}
	if info.SourceKind != "snapshot" {
		t.Fatalf("SourceKind = %q, want snapshot", info.SourceKind)
	}
	if len(info.Sections) != 3 {
		t.Fatalf("Sections = %v, want meta/source/ctrl", info.Sections)
	}
	if _, err := InspectCheckpoint(cp[:10]); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("truncated inspect err = %v, want ErrCorrupt", err)
	}
}
