package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"heteromem/internal/addr"
	"heteromem/internal/core"
	"heteromem/internal/scheme"
	"heteromem/internal/trace"
	"heteromem/internal/workload"
)

// pinnedCheckpoints maps each case of TestCheckpointBytesPinned to the
// SHA-256 of every checkpoint its run takes. A changed digest means the
// checkpoint format moved: older checkpoints (dsweep spill files, fleet
// peers) would no longer resume. Change a digest only together with
// snap.Version.
var pinnedCheckpoints = map[string]string{
	"N/faults=false/c1":             "249f51fe6b9e64bc5aeca7db4f7f3adb3666430ee6e91b035729307d6122205b",
	"N/faults=false/c2":             "9641ad0e93affac7e7e566742b5ea88303eccf5d5bf02c7b90e13eb18cb62f4e",
	"N/faults=true/c1":              "4f9eb4b05ffd6fcc2642011771d4bd16d2a052a36413cceacbab825278fa3f62",
	"N/faults=true/c2":              "f2e56b2ee26f598d64473a89110e3422ce64ee347a70231c1ad22fedfe53f6ea",
	"N-1/faults=false/c1":           "5bb478609c2b03070e61025aeb21edc4059157abb313a1f8d728a205cc5bc340",
	"N-1/faults=false/c2":           "2ca46cf7f0b3bd92f198ecfc4c0465c2c99e7b00ed4173a0f69cbdabaa6073ac",
	"N-1/faults=true/c1":            "22617d7bc140ececda8c12bc719115c7c688c42cdeeb3584076d4861c88a63b0",
	"N-1/faults=true/c2":            "054a4112793344834eef799bae166b40c6ec614cd8dcbd40fd67fe2e6feec304",
	"Live/faults=false/c1":          "2aee33883abc6cc4bf4ce2b3b4470b30c17a1271a624cd43d8079c9baefc136d",
	"Live/faults=false/c2":          "ed9f4ba255ed56dcc7699b6d1a5d01cc5442e1e503a8740a3bd68674b1f958f4",
	"Live/faults=true/c1":           "dfb9738341d38ebf66bdb3a3edaece82f69a6db17e3410efec8d20789431eca2",
	"Live/faults=true/c2":           "44d0e26d29ce5592c2d195400705bbf28e4999a5bae6ecff18d388c9fa64a868",
	"alloy/faults=false":            "0594afdcfa317da141813c17f2465b7ac3e09b2cdf1f440cdaadc0cb75f1e2d1",
	"alloy/faults=true":             "5d65e2501bdbe03c22fa97dd2d547b5d7146aa5156b96b4e9d59b2d6946afd2a",
	"alloy-pred/faults=false":       "5ba16c0aa494f1fcde5ae5cadfbc8f663eaae645ae16b785ee9f2cfba6aa4132",
	"alloy-pred/faults=true":        "a03a648ce6663f6eb8093085d407ef68131f17e71312000b1560cfb342124ee9",
	"cachemode/faults=false":        "b847de22b37e35314d6f2684993d6c0a080fd0523e0d6d36897f774ff2b8223b",
	"cachemode/faults=true":         "e30aaa3c36d306500b912edbcadc8525b5c9f363c4fc0b33c6e6ba5d1f5ae876",
	"memcache/faults=false":         "c0b53090e6bef113d559118eca65b0a1b931d2b35da03cf7cebed99d9216babf",
	"memcache/faults=true":          "53bb37573282aeeab01e14b16cf15665b24aa4c31a8da17998e96e9479839ceb",
	"memcache-pred:25/faults=false": "ab4a47b45b84c0a9f5efca3fd0ed8c6b06ffe5201752eb42135dbc707020dad8",
	"memcache-pred:25/faults=true":  "8bda738eb8d6df957adf141ad8583c317493c699bc01661263914a5c0aaa4aae",
	"alloy-pred/c2":                 "7e4cea506b73769cc643752c0d3095a31e93689cda3a7d9ff5603116b718ca8c",
	"slice-positioner":              "dd5ffb300aca9275ad4fbf20c55e49ad1d47c1b291c51ea7dc017a8c1f0cfeed",
	"limit-generator":               "297798b179efede0f54bf19a40daf385ef4ff3fce32d0b580158bdf9d05bf22f",
	"naive-mru/fifo":                "f30aed87fdd63b2c0277fe36b1afcfa233f88d90293d4fe00e08e95a2e8c17df",
	"naive-mru/random":              "061e194251cd5f680ea8311b6127ea2b076262959381444895865352c2180077",
	"meter-power":                   "532d9c6def6e69a93b2ae8f51c488cba3e14c04d8c4ae8342ce3e63eed5b8f68",
	"retire/degrade=0":              "a50f57de4ba41de63229774c187816b0f3fcf64f5ca1ba01acf7d73db8ed0c93",
	"retire/degrade=8":              "ed4fc11b9070c46b0a11302968c5711b1924c6b28ee6e2cae35e6e1bc5b2f2c9",
	"workload/FT":                   "dc83ae20d271a0ec8a99f2a10f36362c76c14fa39933dbfaef9cd2cb08bdfb19",
	"workload/MG":                   "9d677c379cbf22a408f074ee214c7e88927bfb067c73c05259f6f7d8a6e3d820",
	"workload/indexer":              "db221d0699c9f6be30b07f36bb7361a9698b3166fdf3fc11a1341c70ab1e39ff",
	"workload/SPECjbb":              "ddef42fbaae1c2d2c8270d11512542a27631de33f68c0576d190badc5e6299e1",
	"workload/SPEC2006":             "21144fd3fb2979c264fd573926225c13dafc99fdf823e5837b44baa01bcae063",
	"workload/stream-mix":           "f6c27b7c341aac451e63c1bbd56822c34be02fbecccff0afb416fad2ef7f1899",
}

// TestCheckpointBytesPinned records the checkpoint bytes of a matrix of
// runs — every design with faults off and on over one and two channels,
// every cache scheme, a positioner and a Limit-wrapped source, the victim
// ablations under naive MRU, the power meter, slot retirement, and every
// workload's streams — at fixed record counts, and compares their digests
// against the pinned ones.
func TestCheckpointBytesPinned(t *testing.T) {
	type pinCase struct {
		name string
		cfg  Config
		src  func(t *testing.T) trace.Source
	}
	var cases []pinCase
	for _, design := range []core.Design{core.DesignN, core.DesignN1, core.DesignLive} {
		for _, faults := range []bool{false, true} {
			for _, channels := range []int{1, 2} {
				cfg := equivConfig(design, faults)
				cfg.Channels = channels
				cases = append(cases, pinCase{fmt.Sprintf("%v/faults=%v/c%d", design, faults, channels), cfg, equivSource})
			}
		}
	}
	for _, name := range []string{"alloy", "alloy-pred", "cachemode", "memcache", "memcache-pred:25"} {
		for _, faults := range []bool{false, true} {
			cfg := equivConfig(core.DesignLive, faults)
			sp, err := scheme.Parse(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Scheme = sp
			if sp.Kind != scheme.KindMemCache {
				cfg.Migration = nil
			}
			cases = append(cases, pinCase{fmt.Sprintf("%s/faults=%v", name, faults), cfg, equivSource})
		}
	}
	alloy2 := equivConfig(core.DesignLive, false)
	alloy2.Migration = nil
	alloy2.Scheme, _ = scheme.Parse("alloy-pred")
	alloy2.Channels = 2
	cases = append(cases, pinCase{"alloy-pred/c2", alloy2, equivSource})

	slice := equivConfig(core.DesignLive, false)
	slice.MaxRecords = 0
	cases = append(cases, pinCase{"slice-positioner", slice, func(t *testing.T) trace.Source {
		recs, err := trace.Collect(equivSource(t), 8_000)
		if err != nil {
			t.Fatal(err)
		}
		return trace.NewSliceSource(recs)
	}})
	limit := equivConfig(core.DesignN1, true)
	limit.MaxRecords = 0
	cases = append(cases, pinCase{"limit-generator", limit, func(t *testing.T) trace.Source {
		return trace.NewLimit(equivSource(t), 9_000)
	}})
	for _, victim := range []core.VictimPolicy{core.VictimFIFO, core.VictimRandom} {
		cfg := equivConfig(core.DesignN1, true)
		cfg.Migration.NaiveMRU = true
		cfg.Migration.Victim = victim
		cases = append(cases, pinCase{"naive-mru/" + victim.String(), cfg, equivSource})
	}
	power := equivConfig(core.DesignLive, true)
	power.MeterPower = true
	cases = append(cases, pinCase{"meter-power", power, equivSource})
	for _, budget := range []int{0, 8} {
		cfg := equivConfig(core.DesignN1, true)
		cfg.Migration.SwapInterval = 3_000
		cfg.Fault.DeviceRate = 5e-3
		cfg.Fault.CopyRate = 3e-2
		cfg.Fault.RetireAfter = 1
		cfg.Fault.DegradeBudget = budget
		cases = append(cases, pinCase{fmt.Sprintf("retire/degrade=%d", budget), cfg, equivSource})
	}
	for _, name := range workload.Names() {
		if name == "pgbench" {
			continue
		}
		cases = append(cases, pinCase{"workload/" + name, equivConfig(core.DesignLive, false), func(t *testing.T) trace.Source {
			gen, err := workload.NewMemory(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			return gen
		}})
	}
	// No built-in memory workload uses the pointer-chase or V-cycle streams.
	mix := workload.Spec{Name: "stream-mix", MeanGap: 2, Cores: 2, Components: []workload.Component{
		{Name: "chase", Weight: 30, Region: 256 * addr.MiB, Make: workload.ChaseMaker()},
		{Name: "vcycle", Weight: 30, Region: 512 * addr.MiB, WriteFrac: 0.3, Make: workload.VCycleMaker(4, 1<<10)},
		{Name: "drift", Weight: 20, Region: 512 * addr.MiB, WriteFrac: 0.2,
			Make: workload.DriftMaker(workload.ZipfMaker(4096, 1.1, true), 64*addr.MiB, 4_000)},
		{Name: "strided", Weight: 10, Region: 256 * addr.MiB, Make: workload.StridedChunkMaker(1<<20, 4096, 256)},
		{Name: "uniform", Weight: 10, Region: 128 * addr.MiB, WriteFrac: 0.5, Make: workload.UniformMaker()},
	}}
	cases = append(cases, pinCase{"workload/stream-mix", equivConfig(core.DesignLive, false), func(t *testing.T) trace.Source {
		gen, err := workload.New(mix, 1)
		if err != nil {
			t.Fatal(err)
		}
		return gen
	}})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			var taken int
			cfg := tc.cfg
			cfg.CheckpointEvery = 1_000
			cfg.CheckpointSink = func(data []byte, n uint64) error {
				var hdr [16]byte
				binary.LittleEndian.PutUint64(hdr[:8], n)
				binary.LittleEndian.PutUint64(hdr[8:], uint64(len(data)))
				h.Write(hdr[:])
				h.Write(data)
				taken++
				return nil
			}
			if _, err := Run(tc.src(t), cfg); err != nil {
				t.Fatal(err)
			}
			if taken == 0 {
				t.Fatal("no checkpoints taken")
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := pinnedCheckpoints[tc.name]; got != want {
				t.Errorf("checkpoint bytes moved over %d checkpoints:\n\t%q: %q,", taken, tc.name, got)
			}
		})
	}
}
