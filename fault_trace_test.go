package heteromem_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"heteromem"
)

// ladderFaults is a fault campaign dense enough to walk the whole
// escalation ladder in a short run: a one-retry budget turns most repeated
// copy faults into rollbacks, and the bulk rate faults step completions
// often.
func ladderFaults(retireAfter int) heteromem.FaultConfig {
	return heteromem.FaultConfig{
		Seed: 7, DeviceRate: 1e-3, CopyRate: 1e-2, BulkRate: 0.2,
		RetryBudget: 1, RetireAfter: retireAfter, DegradeBudget: 2000,
	}
}

// TestSwapAbortInsideReentrantDrain is a regression test: a step's read
// legs are enqueued one at a time, and each submit may drain the scheduler
// reentrantly (always during Flush). A leg drained there that exhausts its
// retry budget aborts the step; the legs the issuing loop had not yet
// enqueued must not be issued under the rollback's step (or none), where
// their completion dereferenced a nil step.
func TestSwapAbortInsideReentrantDrain(t *testing.T) {
	sys, err := heteromem.New(heteromem.Config{
		Migration: heteromem.Migration{Enabled: true, Design: heteromem.DesignN1, SwapInterval: 1000},
		Fault:     ladderFaults(1000),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunWorkload("pgbench", 1, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Faults
	if f == nil || !f.Balanced(f.Injected) {
		t.Fatalf("fault ledger missing or unbalanced: %+v", f)
	}
	if f.SwapsRolledBack == 0 {
		t.Fatalf("no swap rolled back; the campaign no longer reaches the abort path: %+v", f)
	}
}

// TestSpanTraceReconcilesFaultLedger pins that the span trace, the only
// cycle-domain trace, tells the whole fault-ladder story: every injected
// fault leaves one fault mark, and every rollback, retirement, completed
// swap, and degradation leaves its span or mark. Every landed copy, forward,
// undo or retirement, leaves one copy-write span that the copy counters
// also count. `make soak` runs it under a fresh SOAK_SEED.
func TestSpanTraceReconcilesFaultLedger(t *testing.T) {
	fc := ladderFaults(3)
	fc.Seed = soakEnv(t, "SOAK_SEED", fc.Seed)
	for _, d := range []heteromem.Design{heteromem.DesignN, heteromem.DesignN1, heteromem.DesignLive} {
		for _, channels := range []int{1, 2} {
			d, channels := d, channels
			t.Run(fmt.Sprintf("%v/c%d", d, channels), func(t *testing.T) {
				t.Parallel()
				sys, err := heteromem.New(heteromem.Config{
					Migration: heteromem.Migration{Enabled: true, Design: d, SwapInterval: 1000},
					Channels:  channels,
					SpanTrace: 1 << 21,
					Fault:     fc,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.RunWorkload("pgbench", 1, 100_000)
				if err != nil {
					t.Fatal(err)
				}
				if res.SpansDropped != 0 {
					t.Fatalf("spans dropped (%d); grow the test buffer", res.SpansDropped)
				}
				f := res.Faults
				if f == nil {
					t.Fatal("fault campaign produced no ledger")
				}
				kinds := map[string]uint64{}
				var copyBytes uint64
				for _, s := range res.Spans {
					kinds[s.Kind.String()]++
					if s.Kind.String() == "copy-write" {
						copyBytes += s.C
					}
				}
				for _, c := range []struct {
					kind string
					want uint64
				}{
					{"fault", f.Injected},
					{"rollback", f.SwapsRolledBack},
					{"retire", f.SlotsRetired},
					{"swap", res.Report.Migration.SwapsCompleted},
				} {
					if kinds[c.kind] != c.want {
						t.Errorf("%d %q spans, ledger says %d (ledger %+v)", kinds[c.kind], c.kind, c.want, f)
					}
				}
				if subs := res.Metrics.Counters["memctrl.copy.sub_blocks"]; kinds["copy-write"] != subs {
					t.Errorf("%d copy-write spans, %d copies counted", kinds["copy-write"], subs)
				}
				if bytes := res.Metrics.Counters["memctrl.copy.bytes"]; copyBytes != bytes {
					t.Errorf("copy-write spans carry %d bytes, %d copy bytes counted", copyBytes, bytes)
				}
				// A read leg of an aborted step lands without its write.
				if kinds["copy-read"] < kinds["copy-write"] {
					t.Errorf("%d copy-read spans for %d copy-write spans", kinds["copy-read"], kinds["copy-write"])
				}
				if n := kinds["degrade"]; n > uint64(channels) || (n > 0) != f.DegradedMode {
					t.Errorf("%d degrade marks over %d channels with DegradedMode=%v", n, channels, f.DegradedMode)
				}
				t.Logf("ledger %+v; spans %v", *f, kinds)
			})
		}
	}
}

// pinnedLadder maps each case of TestFaultLadderPinned to two SHA-256
// digests of its Result's JSON: the full Result, and the Result with its
// copy-read/copy-write spans dropped and its energy zeroed. The filtered
// digest pins every fault response; the full one also pins how the copies
// are traced and metered.
var pinnedLadder = map[string][2]string{
	"N/c1/retire=3/obs=false":       {"5d0fedb8b17491a3a2a4d0d997cd49aee3884ad50d238548c371d0a574e84860", "5d0fedb8b17491a3a2a4d0d997cd49aee3884ad50d238548c371d0a574e84860"},
	"N/c1/retire=3/obs=true":        {"d711811387639c7aa22089462e9679f7da3ae4cbf670de4c443f723c900157be", "da5c70aeeaf82078d5dc19b03e9ce490353d4e81cc343db80a1cd81e12a911ef"},
	"N/c1/retire=1000/obs=false":    {"dfa25292274e8d56226d9f61f434959c2204259ee27e8c489de6aeed6183f8ee", "dfa25292274e8d56226d9f61f434959c2204259ee27e8c489de6aeed6183f8ee"},
	"N/c1/retire=1000/obs=true":     {"3c13ee447e0bd50cdbb87020ea1e5f8655defb09ddba4c45b4e61a60eb78fc8d", "5a4425d340f4dfef94484eb75092ff3200bbdfa7e591bc9fbc867375a6723c98"},
	"N/c2/retire=3/obs=false":       {"594181bf53a795148ec7d8393e6d4002fd2e71bfbe9adbb9c5fbb69ddc2f183b", "594181bf53a795148ec7d8393e6d4002fd2e71bfbe9adbb9c5fbb69ddc2f183b"},
	"N/c2/retire=3/obs=true":        {"9d0b4faf663b230a7482e1ffbf2303a9ad8edd486124a46cee46afbf428be6cd", "09788139b43dc64f5744f1cb15e8544dc98c1244295e735265d3c9d623a1d25a"},
	"N/c2/retire=1000/obs=false":    {"d696562b87b5090e0321ddbc45ba26c4cf164a6f352095228dfc5fbfdea289cd", "d696562b87b5090e0321ddbc45ba26c4cf164a6f352095228dfc5fbfdea289cd"},
	"N/c2/retire=1000/obs=true":     {"1fd06730246d3e57cb8ec4164a82c3055e265882aef38d5b8d002f037f87f971", "d4491f52fcc7e7382877247894f0a54450b6fb206cc23da6d9387010bbe59780"},
	"N-1/c1/retire=3/obs=false":     {"84e13b056e9bcf7beea73f3bcdf8f59cb67238bfb0b5da36a49970b977b97a8c", "84e13b056e9bcf7beea73f3bcdf8f59cb67238bfb0b5da36a49970b977b97a8c"},
	"N-1/c1/retire=3/obs=true":      {"63a145f5beb2cac22fb96577e612d9ab8103aca28356e0658c9544edcfde980e", "dbc1407f6c05ac590ccb2a0154a26ed23dea089ad21d77a0e84b1d561806e33b"},
	"N-1/c1/retire=1000/obs=false":  {"4d8ad260b776f49a477b8d93de260d3b24cbfb9558c62cb33ee86106cb42d2d3", "4d8ad260b776f49a477b8d93de260d3b24cbfb9558c62cb33ee86106cb42d2d3"},
	"N-1/c1/retire=1000/obs=true":   {"96f8f4b3caa538548a490f5fc9d9400037a9679f839521f9ae21c7539b7ac8d3", "034a900fbec71705a12e0f0a0a7c0e352d4b02c96c53f45749cebce27e18f90f"},
	"N-1/c2/retire=3/obs=false":     {"7266ede2744d4f3af5c8d0f74fae4f19ba2e539bfe1de62d7e06702f88e8614c", "7266ede2744d4f3af5c8d0f74fae4f19ba2e539bfe1de62d7e06702f88e8614c"},
	"N-1/c2/retire=3/obs=true":      {"163dbeadbb9eec62ad8022f6543fda25e63e131a832541ba5e799dbd1dc1540e", "e695a8b1b656ffa835402e1c564635355f2966ee7eb470357123881555cbbdd1"},
	"N-1/c2/retire=1000/obs=false":  {"96060477414d501b079981960e7cfc62403de26c018b359e00e938f7d814e313", "96060477414d501b079981960e7cfc62403de26c018b359e00e938f7d814e313"},
	"N-1/c2/retire=1000/obs=true":   {"6ee43fcd1cbb9b2474172c18a755736de194749b0b83cebb52f77d2fcc8d99f8", "1d323932474e9703bc1a64d0ce8f28ae117bd4a6bef2264b49aab02a14319197"},
	"Live/c1/retire=3/obs=false":    {"860c15ca8312beb5b5c053950a85ba6f7db4ed078067194f135cbe5d46f7559b", "860c15ca8312beb5b5c053950a85ba6f7db4ed078067194f135cbe5d46f7559b"},
	"Live/c1/retire=3/obs=true":     {"9920e3633d1ce39cfadff7e213f6b2f0c01994dddeb71d47bc78f6bc8b814c68", "cecf82a1808856917f7395689fceda003dceb1540e88c08e92e4181b59bf4548"},
	"Live/c1/retire=1000/obs=false": {"5e43f20b5a48a29e96299c8a78334b709dae353bfe2d60254a975e909c46932a", "5e43f20b5a48a29e96299c8a78334b709dae353bfe2d60254a975e909c46932a"},
	"Live/c1/retire=1000/obs=true":  {"e746655e297a42b23c985c51c92159bed8466e88ede68d3c36145ab9546abc1f", "34a17e001547ada95e423c9279e245ef445b41d6527f9a7f3acce6e40484c11f"},
	"Live/c2/retire=3/obs=false":    {"e965479acf83460889d9d93ea26e82fb3ffb376b970e66fb2d1a666408a66bcb", "e965479acf83460889d9d93ea26e82fb3ffb376b970e66fb2d1a666408a66bcb"},
	"Live/c2/retire=3/obs=true":     {"f4aeabc3fd8ac63b34db598719798ccf8483c94efd42a9d218bc8de58b6b5ddf", "8c1571f6ef41a28564bf704cef1c21934fadc6f7af09752a81459e6fa2f493b2"},
	"Live/c2/retire=1000/obs=false": {"1321facde4631fe501b7c5d4c63ab4a96fbb6d3ceac5fdd1019c38ab67214aae", "1321facde4631fe501b7c5d4c63ab4a96fbb6d3ceac5fdd1019c38ab67214aae"},
	"Live/c2/retire=1000/obs=true":  {"0ba79080aef32abcc1eb390f71a926b3008aa683db3aade9d74a102f84d3f5d1", "b6e1e54b6575cd666264ba3a707b9077c9a9cc720646c710e3f8e9b8ab72969f"},
}

// TestFaultLadderPinned pins the fault responses of every migration design
// over one and two channels, with the ladder campaign retiring slots early
// (after 3 frame faults) or never, and with observability off or on. The
// matrix has to reach every upper rung: a rollback in each design, a slot
// retirement, degraded mode, and an N-design rollback whose undo was
// abandoned.
func TestFaultLadderPinned(t *testing.T) {
	var (
		mu      sync.Mutex
		reached = map[string]bool{}
	)
	t.Run("runs", func(t *testing.T) {
		for _, d := range []heteromem.Design{heteromem.DesignN, heteromem.DesignN1, heteromem.DesignLive} {
			for _, channels := range []int{1, 2} {
				for _, retireAfter := range []int{3, 1000} {
					for _, observed := range []bool{false, true} {
						d, channels, retireAfter, observed := d, channels, retireAfter, observed
						name := fmt.Sprintf("%v/c%d/retire=%d/obs=%v", d, channels, retireAfter, observed)
						t.Run(name, func(t *testing.T) {
							t.Parallel()
							cfg := heteromem.Config{
								Migration: heteromem.Migration{Enabled: true, Design: d, SwapInterval: 1000},
								Scheme:    "migrate",
								Channels:  channels,
								Audit:     true,
								Fault:     ladderFaults(retireAfter),
							}
							if observed {
								cfg.MeterPower = true
								cfg.SpanTrace = 1 << 21
								cfg.EpochSeries = 1 << 12
							}
							sys, err := heteromem.New(cfg)
							if err != nil {
								t.Fatal(err)
							}
							res, err := sys.RunWorkload("pgbench", 1, 60_000)
							if err != nil {
								t.Fatal(err)
							}
							if res.SpansDropped != 0 {
								t.Fatalf("spans dropped (%d); grow the test buffer", res.SpansDropped)
							}
							full := resultDigest(t, res)
							filtered := res
							filtered.Spans = nil
							for _, s := range res.Spans {
								if k := s.Kind.String(); k != "copy-read" && k != "copy-write" {
									filtered.Spans = append(filtered.Spans, s)
								}
							}
							filtered.EnergyPJ, filtered.NormalizedPower = 0, 0
							got := [2]string{full, resultDigest(t, filtered)}
							if want := pinnedLadder[name]; got != want {
								t.Errorf("digests moved:\n got full %s filtered %s\nwant full %s filtered %s",
									got[0], got[1], want[0], want[1])
							}

							f := res.Faults
							mu.Lock()
							defer mu.Unlock()
							if f.SwapsRolledBack > 0 {
								reached["rollback/"+d.String()] = true
							}
							if f.SlotsRetired > 0 {
								reached["retire"] = true
							}
							if f.DegradedMode {
								reached["degrade"] = true
							}
							for _, s := range res.Spans {
								if s.Kind.String() == "rollback" && s.B == 1 && d == heteromem.DesignN {
									reached["abandoned/N"] = true
								}
							}
						})
					}
				}
			}
		}
	})
	for _, rung := range []string{"rollback/N", "rollback/N-1", "rollback/Live", "retire", "degrade", "abandoned/N"} {
		if !reached[rung] {
			t.Errorf("no run of the matrix reached %s", rung)
		}
	}
}

// resultDigest is the hex SHA-256 of a Result's JSON encoding.
func resultDigest(t *testing.T, res heteromem.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
