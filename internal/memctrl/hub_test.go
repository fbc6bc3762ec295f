package memctrl

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"heteromem/internal/core"
	"heteromem/internal/obs"
)

// hubConfig is smallConfig with migration on, so the sharded tests exercise
// translation, swaps, and copy traffic, not just static routing.
func hubConfig() Config {
	cfg := smallConfig()
	cfg.Migration = &core.Options{Design: core.DesignLive, SwapInterval: 200}
	return cfg
}

// hubTrace materializes a deterministic access stream over the global
// address space: hot pages (migration candidates) plus a uniform tail.
func hubTrace(n int, total uint64) []struct {
	a     uint64
	write bool
	cycle int64
} {
	rng := rand.New(rand.NewSource(42))
	recs := make([]struct {
		a     uint64
		write bool
		cycle int64
	}, n)
	var cycle int64
	for i := range recs {
		cycle += int64(rng.Intn(40)) + 1
		var a uint64
		if rng.Intn(100) < 70 {
			a = uint64(rng.Intn(8)) * (total / 16) // hot pages
		} else {
			a = uint64(rng.Int63n(int64(total)))
		}
		a &^= 63
		recs[i] = struct {
			a     uint64
			write bool
			cycle int64
		}{a: a, write: rng.Intn(4) == 0, cycle: cycle}
	}
	return recs
}

func TestHubSingleChannelDelegates(t *testing.T) {
	cfg := hubConfig()
	bare, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHub(cfg, HubConfig{Channels: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hub.Channels() != 1 {
		t.Fatalf("single hub: channels=%d", hub.Channels())
	}
	for _, r := range hubTrace(30_000, cfg.Geometry.TotalCapacity) {
		if err := bare.Access(r.a, r.write, r.cycle); err != nil {
			t.Fatal(err)
		}
		if err := hub.Access(r.a, r.write, r.cycle); err != nil {
			t.Fatal(err)
		}
	}
	if bf, hf := bare.Flush(), hub.Flush(); bf != hf {
		t.Fatalf("flush cycle %d vs %d", bf, hf)
	}
	got, _ := json.Marshal(hub.Report())
	want, _ := json.Marshal(report(bare))
	if string(got) != string(want) {
		t.Fatalf("single-channel hub report diverged:\n got %s\nwant %s", got, want)
	}
}

func TestHubRoutingMatchesInterleave(t *testing.T) {
	cfg := hubConfig()
	hub, err := NewHub(cfg, HubConfig{Channels: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gran := cfg.Geometry.MacroPageSize
	for _, a := range []uint64{0, 1, gran - 1, gran, 3 * gran, cfg.Geometry.TotalCapacity - 1} {
		ch, local := hub.Route(a)
		if want := int((a / gran) % 4); ch != want {
			t.Fatalf("Route(%#x) channel = %d, want %d", a, ch, want)
		}
		if back := hub.Interleave().Global(ch, local); back != a {
			t.Fatalf("Global(%d, %#x) = %#x, want %#x", ch, local, back, a)
		}
	}
	if m := hub.Interleave().Mapping(); m.ChannelOf(5*gran) != 1 {
		t.Fatal("Mapping disagrees with Interleave routing")
	}
}

// TestHubReportShuffledCompletion is the channel-completion-order contract:
// shards reach their final state from their own access subsequences no
// matter how those subsequences interleave globally (which is exactly what
// varying goroutine completion order does), and the folded report is
// byte-identical.
func TestHubReportShuffledCompletion(t *testing.T) {
	cfg := hubConfig()
	recs := hubTrace(30_000, cfg.Geometry.TotalCapacity)

	run := func(shuffle *rand.Rand) string {
		hub, err := NewHub(cfg, HubConfig{Channels: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Pre-route into per-shard subsequences (preserving per-shard
		// order), then drain the shards in a shuffled round-robin so every
		// trial commits shard work in a different global order.
		batches := make([][]struct {
			local uint64
			write bool
			cycle int64
		}, 4)
		for _, r := range recs {
			ch, local := hub.Route(r.a)
			batches[ch] = append(batches[ch], struct {
				local uint64
				write bool
				cycle int64
			}{local, r.write, r.cycle})
		}
		pos := make([]int, 4)
		for {
			live := make([]int, 0, 4)
			for ch := range batches {
				if pos[ch] < len(batches[ch]) {
					live = append(live, ch)
				}
			}
			if len(live) == 0 {
				break
			}
			ch := live[0]
			if shuffle != nil {
				ch = live[shuffle.Intn(len(live))]
			}
			take := 1
			if shuffle != nil {
				take += shuffle.Intn(64)
			}
			for ; take > 0 && pos[ch] < len(batches[ch]); take-- {
				r := batches[ch][pos[ch]]
				if err := hub.Shard(ch).Access(r.local, r.write, r.cycle); err != nil {
					t.Fatal(err)
				}
				pos[ch]++
			}
		}
		hub.Flush()
		if err := hub.Err(); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(hub.Report())
		return string(b)
	}

	want := run(nil)
	for trial := 0; trial < 5; trial++ {
		if got := run(rand.New(rand.NewSource(int64(trial)))); got != want {
			t.Fatalf("shuffled completion trial %d diverged:\n got %s\nwant %s", trial, got, want)
		}
	}
}

// TestHubShardObsIsolated: a sharded hub refuses shared instruments and
// accepts per-shard registries, whose merged snapshot carries every shard's
// counters.
func TestHubShardObsIsolated(t *testing.T) {
	cfg := hubConfig()
	cfg.Obs = obs.NewRegistry()
	if _, err := NewHub(cfg, HubConfig{Channels: 2}, nil); err == nil {
		t.Fatal("shared Config.Obs must be rejected for a sharded hub")
	}
	cfg.Obs = nil

	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	hub, err := NewHub(cfg, HubConfig{Channels: 2, ShardObs: regs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hubTrace(10_000, cfg.Geometry.TotalCapacity) {
		if err := hub.Access(r.a, r.write, r.cycle); err != nil {
			t.Fatal(err)
		}
	}
	hub.Flush()
	hub.PublishObs()
	merged := obs.MergeSnapshots(regs[0].Snapshot(), regs[1].Snapshot())
	var perShard uint64
	for _, reg := range regs {
		s := reg.Snapshot()
		perShard += s.Get("memctrl.access.on") + s.Get("memctrl.access.off")
	}
	if perShard == 0 {
		t.Fatal("no per-shard accesses counted")
	}
	if got := merged.Get("memctrl.access.on") + merged.Get("memctrl.access.off"); got != perShard {
		t.Fatalf("merged accesses = %d, want %d", got, perShard)
	}
}

// TestSharding covers the layout rule NewHub, the config digest and
// sim.Config.Validate share: effective values for every layout, and an
// error, never a panic, for any channel count no hub can build.
func TestSharding(t *testing.T) {
	g := hubConfig().Geometry
	page := g.MacroPageSize
	for _, tc := range []struct {
		in   HubConfig
		want HubConfig
		ok   bool
	}{
		{HubConfig{}, HubConfig{Channels: 1}, true},
		{HubConfig{Channels: 1, Interleave: 3, HopLatency: 5}, HubConfig{Channels: 1}, true},
		{HubConfig{Channels: 2}, HubConfig{Channels: 2, Interleave: page, HopLatency: DefaultHopLatency}, true},
		{HubConfig{Channels: 4, Interleave: 2 * page, HopLatency: 3}, HubConfig{Channels: 4, Interleave: 2 * page, HopLatency: 3}, true},
		{HubConfig{Channels: -1}, HubConfig{Channels: 1}, false},
		{HubConfig{Channels: 3}, HubConfig{Channels: 3, Interleave: page, HopLatency: DefaultHopLatency}, false},
		{HubConfig{Channels: 1024}, HubConfig{Channels: 1024, Interleave: page, HopLatency: DefaultHopLatency}, false},
		{HubConfig{Channels: 1 << 62}, HubConfig{Channels: 1 << 62, Interleave: page, HopLatency: DefaultHopLatency}, false},
		{HubConfig{Channels: math.MaxInt}, HubConfig{Channels: math.MaxInt, Interleave: page, HopLatency: DefaultHopLatency}, false},
		{HubConfig{Channels: math.MinInt}, HubConfig{Channels: 1}, false},
		{HubConfig{Channels: 2, Interleave: page / 2}, HubConfig{Channels: 2, Interleave: page / 2, HopLatency: DefaultHopLatency}, false},
		{HubConfig{Channels: 2, Interleave: 3 * page}, HubConfig{Channels: 2, Interleave: 3 * page, HopLatency: DefaultHopLatency}, false},
		{HubConfig{Channels: 2, Interleave: 1 << 63}, HubConfig{Channels: 2, Interleave: 1 << 63, HopLatency: DefaultHopLatency}, false},
	} {
		got, err := Sharding(g, tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("Sharding(%+v): err %v, want ok=%v", tc.in, err, tc.ok)
		}
		if got.Channels != tc.want.Channels || got.Interleave != tc.want.Interleave || got.HopLatency != tc.want.HopLatency {
			t.Errorf("Sharding(%+v) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	zero := g
	zero.MacroPageSize = 0
	if _, err := Sharding(zero, HubConfig{Channels: 2}); err == nil {
		t.Error("zero macro page accepted")
	}
}

// TestHubValidation covers the layout rules in one place.
func TestHubValidation(t *testing.T) {
	cfg := hubConfig()
	if _, err := NewHub(cfg, HubConfig{Channels: -1}, nil); err == nil {
		t.Fatal("channels=-1 accepted")
	}
	if _, err := NewHub(cfg, HubConfig{Channels: 3}, nil); err == nil {
		t.Fatal("channels=3 accepted")
	}
	if _, err := NewHub(cfg, HubConfig{Channels: 2, Interleave: cfg.Geometry.MacroPageSize / 2}, nil); err == nil {
		t.Fatal("sub-page interleave accepted")
	}
	if _, err := NewHub(cfg, HubConfig{Channels: 2, ShardObs: []*obs.Registry{obs.NewRegistry()}}, nil); err == nil {
		t.Fatal("short ShardObs accepted")
	}
	bad := cfg
	bad.Geometry.OnPackageCapacity = cfg.Geometry.MacroPageSize // one stripe cannot split 4 ways
	if _, err := NewHub(bad, HubConfig{Channels: 4}, nil); err == nil {
		t.Fatal("non-stripe-aligned capacity accepted")
	}
}

// TestHubZeroAllocAccess is the hard allocation gate for the sharded access
// path: at steady state, routing plus the shard controller's pipeline must
// not allocate, for 1, 2, and 4 channels.
func TestHubZeroAllocAccess(t *testing.T) {
	for _, channels := range []int{1, 2, 4} {
		cfg := hubConfig()
		hub, err := NewHub(cfg, HubConfig{Channels: channels}, nil)
		if err != nil {
			t.Fatal(err)
		}
		recs := hubTrace(1<<15, cfg.Geometry.TotalCapacity)
		// Warm pass: freelists fill, first swaps complete.
		for _, r := range recs {
			if err := hub.Access(r.a, r.write, r.cycle); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		cycle := recs[len(recs)-1].cycle
		allocs := testing.AllocsPerRun(5000, func() {
			r := recs[i&(len(recs)-1)]
			i++
			cycle += 17
			if err := hub.Access(r.a, r.write, cycle); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("channels=%d: %v allocs/op on the access path, want 0", channels, allocs)
		}
	}
}
