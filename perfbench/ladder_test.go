package main

import (
	"math"
	"testing"
	"time"
)

// ladderTolerance is how far, as a share of the untraced sim.Run time per
// record, the rungs may miss it. Host timings on a shared machine move by
// about a tenth between back-to-back runs, so the bound is set above that.
const ladderTolerance = 0.25

// TestLadderAddsUp runs the traced ladder of every workload on a shortened
// trace and checks that the rungs account for the untraced time: decode plus
// serial access (divided across channels) plus the loop residual must land
// within ladderTolerance of the untraced sim.Run time, and on one channel the
// residual itself must be small, so the independently timed decode and
// access rungs explain the run. It logs the tracing overhead.
func TestLadderAddsUp(t *testing.T) {
	if testing.Short() {
		t.Skip("times real replays")
	}
	for _, w := range workloads {
		w.records, w.warmup, w.digests = 400_000, 100_000, nil
		t.Run(w.name, func(t *testing.T) {
			res, err := ladder(w, defaultSeed, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("output check: %d of %d operations failed", res.Failed, res.Attempted)
			}
			m := func(name string) float64 {
				v, ok := res.Metrics[name]
				if !ok {
					t.Fatalf("metric %s missing", name)
				}
				return v.Value
			}
			cfg := w.config()
			channels := float64(max(cfg.Channels, 1))
			untraced := m("sim.run_ns_per_record")
			decode, access, loop := m("trace.decode_ns_per_record"), m("memctrl.access_ns_per_record"), m("sim.loop_ns_per_record")
			rungs := decode + access/channels + loop
			t.Logf("untraced %.1f ns/record; decode %.1f + access %.1f/%v + loop %.1f = %.1f; tracing overhead x%.3f",
				untraced, decode, access, channels, loop, rungs, m("bench.tracing_overhead_ratio"))
			if math.Abs(rungs-untraced) > ladderTolerance*untraced {
				t.Errorf("rungs sum to %.1f ns/record, untraced run %.1f: off by more than %.0f%%", rungs, untraced, 100*ladderTolerance)
			}
			if channels == 1 && math.Abs(loop) > ladderTolerance*untraced {
				t.Errorf("loop residual %.1f ns/record exceeds %.0f%% of the untraced %.1f", loop, 100*ladderTolerance, untraced)
			}
			for _, name := range []string{"trace.decode_ns_per_record", "memctrl.access_ns_per_record", "memctrl.route_ns_per_record"} {
				if v := m(name); v <= 0 {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
			if self := m("memctrl.self_ns_per_record"); self < -ladderTolerance*access {
				t.Errorf("memctrl.self_ns_per_record = %.1f: migrator and lookup rungs exceed the access rung %.1f", self, access)
			}
		})
	}
}

// TestPinnedDigests replays every trace of every workload on the default
// seed and compares the simulated output with the digests pinned in
// workloads.go. A model change that alters results fails here first.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("replays full traces")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := w.runConfig()
			seeds := traceSeeds(defaultSeed)
			if len(w.digests) != len(seeds) {
				t.Fatalf("%d digests pinned, want %d", len(w.digests), len(seeds))
			}
			for i, seed := range seeds {
				p, err := buildTrace(w, seed)
				if err != nil {
					t.Fatal(err)
				}
				s, err := serialReplay(w, p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := checkCounts(w, s.rep.All.Count(), s.warmDone); err != nil {
					t.Error(err)
				}
				if got := reportDigest(s.rep, w.records, s.last); got != w.digests[i] {
					t.Errorf("generator seed %d: digest %s, pinned %s", seed, got, w.digests[i])
				}
			}
		})
	}
}
