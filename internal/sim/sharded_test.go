package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"heteromem/internal/core"
	"heteromem/internal/workload"
)

// shardedConfig is the equivalence-suite configuration of a sharded run:
// the perf-golden setup (migration, warmup, audit, optional faults) striped
// across the given channel count.
func shardedConfig(channels int, design core.Design, faults bool) Config {
	cfg := perfGoldenConfig(design, faults)
	cfg.Channels = channels
	return cfg
}

// TestShardedByteIdentical pins the sharded path the same way the perf
// goldens pin the single-channel path: channels 2 and 4, every design ×
// faults on/off, must reproduce the committed canonical-JSON goldens
// byte-for-byte. Together with TestShardedDeterminism this makes the
// parallel runs' bit-reproducibility a regression contract, not a property
// of today's scheduler. Regenerate with -update only for a real behavior
// change, with justification in the PR.
func TestShardedByteIdentical(t *testing.T) {
	for _, channels := range []int{2, 4} {
		for _, design := range []core.Design{core.DesignN, core.DesignN1, core.DesignLive} {
			for _, faults := range []bool{false, true} {
				name := fmt.Sprintf("c%d/%v/faults=%v", channels, design, faults)
				t.Run(name, func(t *testing.T) {
					gen, err := workload.NewMemory("pgbench", 1)
					if err != nil {
						t.Fatal(err)
					}
					res, err := Run(gen, shardedConfig(channels, design, faults))
					if err != nil {
						t.Fatal(err)
					}
					got := canonical(t, res)

					file := fmt.Sprintf("sharded_c%d_%s_faults%v.json", channels,
						strings.ReplaceAll(design.String(), "-", ""), faults)
					path := filepath.Join("testdata", "perf", file)
					if *updatePerfGoldens {
						if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, got, 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing golden (generate with -update): %v", err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("sharded result diverged from golden %s:\n got %s\nwant %s", path, got, want)
					}
				})
			}
		}
	}
}

// TestResumeEquivalenceSharded extends the resume contract to the sharded
// path: for channels 2 and 4, every design × faults on/off, a run resumed
// from ANY checkpoint boundary produces a Result byte-identical (canonical
// JSON) to the uninterrupted parallel run.
func TestResumeEquivalenceSharded(t *testing.T) {
	for _, channels := range []int{2, 4} {
		for _, design := range []core.Design{core.DesignN, core.DesignN1, core.DesignLive} {
			for _, faults := range []bool{false, true} {
				t.Run(fmt.Sprintf("c%d/%v/faults=%v", channels, design, faults), func(t *testing.T) {
					cfg := equivConfig(design, faults)
					cfg.Channels = channels

					base, err := Run(equivSource(t), cfg)
					if err != nil {
						t.Fatal(err)
					}
					want := canonical(t, base)

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
						t.Fatalf("checkpointing changed the sharded result:\n got %s\nwant %s", got, want)
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
}

// TestShardedDeterminism is the bit-reproducibility contract of the
// parallel execution: the same channels=4 configuration — with every
// observability collector attached, so events, spans, and series are part
// of the comparison — run five times under each of GOMAXPROCS 1, 2, and 8
// must produce byte-identical canonical JSON every single time.
func TestShardedDeterminism(t *testing.T) {
	cfg := shardedConfig(4, core.DesignLive, true)
	cfg.Metrics = true
	cfg.EventTrace = 512
	cfg.SpanTrace = 1024
	cfg.EpochSeries = 64

	run := func() []byte {
		gen, err := workload.NewMemory("pgbench", 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(gen, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return canonical(t, res)
	}

	want := run()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 5; i++ {
			if got := run(); !bytes.Equal(got, want) {
				t.Fatalf("GOMAXPROCS=%d run %d diverged:\n got %s\nwant %s", procs, i, got, want)
			}
		}
	}
}

// TestShardedBarrierWindowInvariance pins the design claim that the barrier
// window only trades buffering against synchronization overhead: results
// are byte-identical across radically different window sizes.
func TestShardedBarrierWindowInvariance(t *testing.T) {
	base := shardedConfig(2, core.DesignN1, true)
	want := func() []byte {
		gen, err := workload.NewMemory("pgbench", 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(gen, base)
		if err != nil {
			t.Fatal(err)
		}
		return canonical(t, res)
	}()
	for _, window := range []int64{1, 64, 100_000, 1 << 30} {
		gen, err := workload.NewMemory("pgbench", 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := simulate(context.Background(), gen, base, window)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonical(t, res); !bytes.Equal(got, want) {
			t.Fatalf("barrier window %d diverged from the default window", window)
		}
	}
}

// TestShardedCheckpointSections verifies the sharded container layout (one
// ctrl<i> section per channel) and that the config digest separates channel
// layouts: a checkpoint taken at channels=2 must not resume at channels=4.
func TestShardedCheckpointSections(t *testing.T) {
	cfg := equivConfig(core.DesignN1, false)
	cfg.Channels = 4
	cp := captureOne(t, cfg)

	info, err := InspectCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"meta", "source", "ctrl0", "ctrl1", "ctrl2", "ctrl3"}
	if fmt.Sprint(info.Sections) != fmt.Sprint(want) {
		t.Fatalf("Sections = %v, want %v", info.Sections, want)
	}
	if info.ConfigDigest != ConfigDigest(cfg) {
		t.Fatal("digest mismatch")
	}

	single := equivConfig(core.DesignN1, false)
	if ConfigDigest(single) == ConfigDigest(cfg) {
		t.Fatal("channels=1 and channels=4 must not share a config digest")
	}
	other := cfg
	other.Channels = 2
	other.Resume = cp
	if _, err := Run(equivSource(t), other); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("resume under a different channel count: err = %v, want ErrConfigMismatch", err)
	}
}

// TestShardedRejectsBadLayouts covers the hub's validation: non-power-of-two
// channel counts, interleaves that split a macro page, and capacities that
// do not divide into whole stripes.
func TestShardedRejectsBadLayouts(t *testing.T) {
	t.Run("channels-not-power-of-two", func(t *testing.T) {
		cfg := shardedConfig(3, core.DesignLive, false)
		if _, err := Run(equivSource(t), cfg); err == nil {
			t.Fatal("channels=3 should be rejected")
		}
	})
	t.Run("interleave-below-page", func(t *testing.T) {
		cfg := shardedConfig(2, core.DesignLive, false)
		cfg.InterleaveBytes = cfg.Geometry.MacroPageSize / 2
		if _, err := Run(equivSource(t), cfg); err == nil {
			t.Fatal("interleave below the macro page size should be rejected")
		}
	})
	t.Run("capacity-not-stripe-aligned", func(t *testing.T) {
		cfg := shardedConfig(4, core.DesignLive, false)
		cfg.InterleaveBytes = cfg.Geometry.OnPackageCapacity / 2
		if _, err := Run(equivSource(t), cfg); err == nil {
			t.Fatal("on-package capacity of half a stripe should be rejected")
		}
	})
}

// TestRunJoinsShardWorkers pins that every return path of a sharded run —
// success, source error, cancellation, checkpoint-sink error — joins its
// shard workers: the count of Run's goroutines right after it returns
// equals the count before it was called, with no sleep or poll. Two things
// make the count exact. Run executes under a pprof label its goroutines
// inherit, so goroutines of other tests and the runtime's finalizer
// goroutine, which come and go on their own, are not counted. And the test
// runs on one P, so goroutines take turns: a worker that signals its exit
// keeps the P until it is gone, while a worker that was only told to exit
// has not run yet when Run returns.
func TestRunJoinsShardWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	errSink := errors.New("sink refused")
	paths := []struct {
		name string
		run  func(cfg Config) error
	}{
		{"success", func(cfg Config) error {
			_, err := Run(equivSource(t), cfg)
			return err
		}},
		{"source-error", func(cfg Config) error {
			if _, err := Run(&failingSource{}, cfg); !errors.Is(err, errInjected) {
				return fmt.Errorf("err = %v, want the injected source failure", err)
			}
			return nil
		}},
		{"cancelled", func(cfg Config) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg.CheckpointEvery = 1_000
			cfg.CheckpointSink = func([]byte, uint64) error { cancel(); return nil }
			if _, err := RunContext(ctx, equivSource(t), cfg); !errors.Is(err, context.Canceled) {
				return fmt.Errorf("err = %v, want context.Canceled", err)
			}
			return nil
		}},
		{"sink-error", func(cfg Config) error {
			cfg.CheckpointEvery = 1_000
			cfg.CheckpointSink = func([]byte, uint64) error { return errSink }
			if _, err := Run(equivSource(t), cfg); !errors.Is(err, errSink) {
				return fmt.Errorf("err = %v, want the sink's error", err)
			}
			return nil
		}},
	}
	for _, channels := range []int{2, 4} {
		for _, p := range paths {
			name := fmt.Sprintf("c%d/%s", channels, p.name)
			t.Run(name, func(t *testing.T) {
				cfg := equivConfig(core.DesignLive, false)
				cfg.Channels = channels
				before := labeledGoroutines(t, name)
				var err error
				pprof.Do(context.Background(), pprof.Labels("run", name), func(context.Context) {
					err = p.run(cfg)
				})
				if err != nil {
					t.Fatal(err)
				}
				if after := labeledGoroutines(t, name); after != before {
					t.Fatalf("%d of Run's goroutines alive after it returned, %d before: shard workers not joined", after, before)
				}
			})
		}
	}
}

// labeledGoroutines counts the live goroutines carrying the pprof label
// run=id, read from the goroutine profile: each stack group there opens
// with its goroutine count, followed by the group's labels.
func labeledGoroutines(t *testing.T, id string) int {
	t.Helper()
	var b strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
		t.Fatal(err)
	}
	total, group := 0, 0
	for _, line := range strings.Split(b.String(), "\n") {
		if _, err := fmt.Sscanf(line, "%d @", &group); err == nil {
			continue
		}
		if strings.HasPrefix(line, "# labels:") && strings.Contains(line, `"run":"`+id+`"`) {
			total += group
		}
	}
	return total
}
