package sim

import (
	"bytes"
	"fmt"
	"testing"

	"heteromem/internal/core"
	"heteromem/internal/trace"
)

// cappedSource is a Source that never fills more than cap records per
// NextBatch call, regardless of how large a batch the runner offers. It
// forwards Positioner so checkpoints store a plain record index.
type cappedSource struct {
	src *trace.SliceSource
	cap int
}

func (c *cappedSource) Position() uint64      { return c.src.Position() }
func (c *cappedSource) SkipTo(n uint64) error { return c.src.SkipTo(n) }

func (c *cappedSource) NextBatch(b *trace.Batch) (int, error) {
	if b.Len() <= c.cap {
		return c.src.NextBatch(b)
	}
	sub := trace.Batch{Cycle: b.Cycle[:c.cap], Addr: b.Addr[:c.cap], CPU: b.CPU[:c.cap], Write: b.Write[:c.cap]}
	return c.src.NextBatch(&sub)
}

// TestBatchSizeInvariance is the tentpole's semantic contract: batching is
// an execution detail, never a behavior change. For every design (plus the
// sharded path at two and four channels, whose workers synchronize at every
// batch handover) the run must produce byte-identical results AND
// byte-identical checkpoints at every boundary, no matter how records are
// grouped: singleton batches, odd sizes, the cancel stride, one giant
// batch, or whole packed chunks. CheckpointEvery and Warmup
// are deliberately unaligned with the 4096-record cancel stride so batch
// splits land at awkward offsets.
func TestBatchSizeInvariance(t *testing.T) {
	recs, err := trace.Collect(equivSource(t), 12_000)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		design   core.Design
		channels int
	}{
		{"n", core.DesignN, 1},
		{"n-1", core.DesignN1, 1},
		{"live", core.DesignLive, 1},
		{"live-sharded", core.DesignLive, 2},
		{"live-sharded-c4", core.DesignLive, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := equivConfig(tc.design, tc.design == core.DesignLive)
			cfg.Channels = tc.channels
			cfg.CheckpointEvery = 3_500 // unaligned with warmup and cancel stride
			type capture struct {
				res []byte
				cps map[uint64][]byte
			}
			run := func(src trace.Source) capture {
				t.Helper()
				c := capture{cps: map[uint64][]byte{}}
				runCfg := cfg
				runCfg.CheckpointSink = func(data []byte, n uint64) error {
					c.cps[n] = append([]byte(nil), data...)
					return nil
				}
				res, err := Run(src, runCfg)
				if err != nil {
					t.Fatal(err)
				}
				c.res = canonical(t, res)
				return c
			}

			want := run(trace.NewSliceSource(recs))
			if len(want.cps) == 0 {
				t.Fatal("no checkpoints captured")
			}

			variants := map[string]func() trace.Source{
				"cap-1":        func() trace.Source { return &cappedSource{src: trace.NewSliceSource(recs), cap: 1} },
				"cap-7":        func() trace.Source { return &cappedSource{src: trace.NewSliceSource(recs), cap: 7} },
				"cap-4096":     func() trace.Source { return &cappedSource{src: trace.NewSliceSource(recs), cap: 4096} },
				"cap-huge":     func() trace.Source { return &cappedSource{src: trace.NewSliceSource(recs), cap: 1 << 20} },
				"packed-chunk": func() trace.Source { return trace.NewPackedSource(trace.PackRecords(recs)) },
			}
			for name, mk := range variants {
				got := run(mk())
				if !bytes.Equal(got.res, want.res) {
					t.Errorf("%s: result diverged:\n got %s\nwant %s", name, got.res, want.res)
				}
				if len(got.cps) != len(want.cps) {
					t.Errorf("%s: %d checkpoints, want %d", name, len(got.cps), len(want.cps))
					continue
				}
				for n, data := range want.cps {
					if !bytes.Equal(got.cps[n], data) {
						t.Errorf("%s: checkpoint at record %d diverged (%d vs %d bytes)",
							name, n, len(got.cps[n]), len(data))
					}
				}
			}
		})
	}
}

// arraySource is a Source that records the backing array of every
// batch the run loop asks it to fill. It forwards Positioner so the run can
// checkpoint.
type arraySource struct {
	src    *trace.SliceSource
	arrays map[*uint64]bool
	calls  int
}

func (a *arraySource) Position() uint64      { return a.src.Position() }
func (a *arraySource) SkipTo(n uint64) error { return a.src.SkipTo(n) }

func (a *arraySource) NextBatch(b *trace.Batch) (int, error) {
	a.arrays[&b.Cycle[0]] = true
	a.calls++
	return a.src.NextBatch(b)
}

// TestShardedLookAheadBounded pins the sharded run loop's memory bound: it
// decodes at most one batch ahead of the workers, into one of two pooled
// batches, so over a whole run with warmup and checkpoint boundaries it
// never hands the source more than two distinct backing arrays.
func TestShardedLookAheadBounded(t *testing.T) {
	recs, err := trace.Collect(equivSource(t), 12_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, channels := range []int{2, 4} {
		t.Run(fmt.Sprintf("c%d", channels), func(t *testing.T) {
			cfg := equivConfig(core.DesignLive, false)
			cfg.Channels = channels
			cfg.CheckpointEvery = 3_500
			checkpoints := 0
			cfg.CheckpointSink = func([]byte, uint64) error { checkpoints++; return nil }
			src := &arraySource{src: trace.NewSliceSource(recs), arrays: map[*uint64]bool{}}
			res, err := Run(src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Records != uint64(len(recs)) || checkpoints != 3 {
				t.Fatalf("ran %d records with %d checkpoints, want %d with 3", res.Records, checkpoints, len(recs))
			}
			if len(src.arrays) > 2 {
				t.Fatalf("%d NextBatch calls used %d distinct batch arrays, want at most 2", src.calls, len(src.arrays))
			}
		})
	}
}

// TestResumeEquivalencePacked extends the resume contract to the packed
// columnar source the experiment drivers replay: a run checkpointed over a
// PackedSource resumes from any boundary into a byte-identical Result, with
// the checkpoint carrying only the record index (Positioner branch).
func TestResumeEquivalencePacked(t *testing.T) {
	recs, err := trace.Collect(equivSource(t), 12_000)
	if err != nil {
		t.Fatal(err)
	}
	p := trace.PackRecords(recs)

	for _, channels := range []int{1, 2} {
		t.Run(fmt.Sprintf("c%d", channels), func(t *testing.T) {
			cfg := equivConfig(core.DesignLive, true)
			cfg.Channels = channels

			base, err := Run(trace.NewPackedSource(p), cfg)
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
			if _, err := Run(trace.NewPackedSource(p), ckCfg); err != nil {
				t.Fatal(err)
			}
			if len(cps) == 0 {
				t.Fatal("no checkpoints captured")
			}
			for n, data := range cps {
				resCfg := cfg
				resCfg.Resume = data
				res, err := Run(trace.NewPackedSource(p), resCfg)
				if err != nil {
					t.Fatalf("resume from %d: %v", n, err)
				}
				if got := canonical(t, res); !bytes.Equal(got, want) {
					t.Fatalf("resume from record %d diverged", n)
				}
			}
		})
	}
}
