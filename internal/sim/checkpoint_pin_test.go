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
// checkpoint format moved, so older checkpoints (dsweep spill files, fleet
// peers) would no longer resume, or that a run writes different values
// into the same format. Change a digest for a format change only together
// with snap.Version.
var pinnedCheckpoints = map[string]string{
	"N/faults=false/c1":             "249f51fe6b9e64bc5aeca7db4f7f3adb3666430ee6e91b035729307d6122205b",
	"N/faults=false/c2":             "9641ad0e93affac7e7e566742b5ea88303eccf5d5bf02c7b90e13eb18cb62f4e",
	"N/faults=true/c1":              "4f9eb4b05ffd6fcc2642011771d4bd16d2a052a36413cceacbab825278fa3f62",
	"N/faults=true/c2":              "f2e56b2ee26f598d64473a89110e3422ce64ee347a70231c1ad22fedfe53f6ea",
	"N-1/faults=false/c1":           "1e34c8fd918c823418051ee9e3f79f9f6e21c9d31ab3a985f891d9a01b480663",
	"N-1/faults=false/c2":           "134093e69edcd928a62b86b812347e32c2b8719798888772616f2999e5e82625",
	"N-1/faults=true/c1":            "a727b313ea4fb5d5903aac1554ead01b441bd8428091a5917d3997cec7823eb8",
	"N-1/faults=true/c2":            "9c16459145fdc62055990258c272025cf7ceb1bf464fa5ddf5de18ab44ce2471",
	"Live/faults=false/c1":          "0dd7eb5ddc773e49cbae2d8afdd36dfe31f6b9d6753172c159fa8eb36bccb8d6",
	"Live/faults=false/c2":          "edbbcd33f30b3fa6fdf9e443837fb11f825d74ee0cc664b578a011097efc18a6",
	"Live/faults=true/c1":           "8507a5dc4a47cf53df0ea5a6cb3d5189e98f38cadc0638e5edbd4303e5a419d8",
	"Live/faults=true/c2":           "d173c2fe2f9cd129b152baedee0315bcee596a1ecafa8409a9bf8256caa9e89e",
	"alloy/faults=false":            "8f395cb196a394e6c3db24bdfbeb5bc2dc85a27bfaa460bdb557ba62b296ffb7",
	"alloy/faults=true":             "1af9cd5d8c445b73d48c5fea670ce13c20e3f95c2900393cf5035fd4ffc1c042",
	"alloy-pred/faults=false":       "24ee6671814d492872a7037f50315e757b2731411c2bb3bcf2b3b157b55c13fb",
	"alloy-pred/faults=true":        "f1851c5550a20c14fcb88f815211c837281121a9fe6c032656f8ba007af72c91",
	"cachemode/faults=false":        "2ad4bb76c8d34ff04bddae7a49a09e50e2870837f00e7785d1c415f1cf63f580",
	"cachemode/faults=true":         "d2b6166dd780f0c24820753ad596af428fd466f42289a22fee69d055e54a8d73",
	"memcache/faults=false":         "eb8a4490e5e443c0a892c10d12225b2d7ddef2133ad603a0bb08369226e71bd3",
	"memcache/faults=true":          "935c74d32bbce85f4b30ac0b70503314cc93cc690339c87f6e16c1445b627f9a",
	"memcache-pred:25/faults=false": "f9a8bbedd268d3f1e8e16ddf07ffdd57e061474fe09e74fb351671cff2a8460d",
	"memcache-pred:25/faults=true":  "0b27dc7056971465c12f63b8061852890dca71d2440c0ffb1e837d4285881a28",
	"alloy-pred/c2":                 "0b834de02bbe6f408a91750c2508bf43d7edb599daefd61c9bb1368f0ce39d7e",
	"slice-positioner":              "ce5c9f77cc4ccbac209d85b51d2a26fe15c422d5d8ea1d39076298fe2538f2ec",
	"limit-generator":               "21df7b46e39cb942f56b4f53977f8bccdde5cb4d5799df162446678197a7aaaf",
	"naive-mru/fifo":                "f72b3b39f79a5e6f377979422bdd1d654fcbf8a86fccaf6888fdec5534d2cfb5",
	"naive-mru/random":              "6470f8e19e84a9816a63ba2a00952e17df238e7725a5f5f1815df686a1eb4472",
	"meter-power":                   "20520cb3a26d9bcd412b05d86a572edb88a56555e9e78932dea9dbdb9a66db35",
	"retire/degrade=0":              "b733aa1011f905856a433677f4cdcf27e441d539d245eb999254676858a488fd",
	"retire/degrade=8":              "ed4fc11b9070c46b0a11302968c5711b1924c6b28ee6e2cae35e6e1bc5b2f2c9",
	"workload/FT":                   "522aa35157e05f0dc6708420cf0c352ae582f9d7f46956db72b76700bb483606",
	"workload/MG":                   "b1c0d737d9f4676c1d71bda57176bdd9f6cc3a373dc929336f957db0488d65cf",
	"workload/indexer":              "a1a721c283e0a4f52250404df57c3e2e4fbee2615a9f91b11dbdc58be19b7470",
	"workload/SPECjbb":              "1a810388360251a374fbb015335fdb840c3a73d09e0ef642edce837813e63f26",
	"workload/SPEC2006":             "9f3d16412e8cb1428d005b30082e7376614e38c118b364ba62c74130631c659e",
	"workload/stream-mix":           "4c0362e3b7b60644ef0f141c5ac10cc94028158daff64d21fff3d0b0202ba300",
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
