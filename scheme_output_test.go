package heteromem_test

import (
	"fmt"
	"testing"

	"heteromem"
)

// pinnedSchemeOutput maps each case of TestSchemeOutputPinned to the
// SHA-256 of its Result's JSON.
var pinnedSchemeOutput = map[string]string{
	"migrate/Live/c1":          "61e83e182a64bfcead28bc0c4c6e7ccf3514da5ef48adf0f7f1d730ad5e79be5",
	"migrate/Live/c2":          "16a8afad6685c952521ce1db0b97dcd017ac46d0caaba5f014a3cb7c90eef367",
	"migrate/N/c1":             "ef5c9b94f54a64a3c371ffa074014a2a5a1914b9ad799c109f866c8b8dcae856",
	"migrate/N/c2":             "286b28c3e4d9c558f462831890b9d285db2a99ce1fcaa261b8a416bfe71b613a",
	"alloy-pred/none/c1":       "1c6300c551cd3d8d8d226df61caa763deba5efb3866d0b147c359d3f8fffad59",
	"alloy-pred/none/c2":       "4df32bcf9dcc9bedf2c93c5c58e03fa447045848f21e65df444b6f21826a1f45",
	"cachemode/none/c1":        "e2adf3976d4170e7d8b14fe286a95320b5f85f8b9e9b2f009e1d2861cf71eb05",
	"cachemode/none/c2":        "4fb3d6eae0572ebd2039a98748c04de6c032872e49ff261d32b4a5130eeca679",
	"memcache-pred:25/Live/c1": "d5bc8988444e789572f0ce13ffcbeb711846d4fadc2dbc0a5617ede0bc3c819f",
	"memcache-pred:25/Live/c2": "1fd13d5eda2f751277e7d15317f7bd1d47dd16225eea4a9590ff6c0c705b1e71",
}

// TestSchemeOutputPinned pins the observed output of every capacity scheme
// — the metrics snapshot, the span trace, the epoch series and the energy —
// over one and two channels. The cache schemes count their accesses and
// schedule their fills, writebacks and probes on paths the migration pins
// never reach.
func TestSchemeOutputPinned(t *testing.T) {
	live := heteromem.Migration{Enabled: true, Design: heteromem.DesignLive, SwapInterval: 1000}
	cases := []struct {
		scheme    string
		migration heteromem.Migration
	}{
		{"migrate", live},
		{"migrate", heteromem.Migration{Enabled: true, Design: heteromem.DesignN, SwapInterval: 1000}},
		{"alloy-pred", heteromem.Migration{}},
		{"cachemode", heteromem.Migration{}},
		{"memcache-pred:25", live},
	}
	for _, tc := range cases {
		for _, channels := range []int{1, 2} {
			tc, channels := tc, channels
			design := "none"
			if tc.migration.Enabled {
				design = tc.migration.Design.String()
			}
			name := fmt.Sprintf("%s/%s/c%d", tc.scheme, design, channels)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				sys, err := heteromem.New(heteromem.Config{
					Migration:   tc.migration,
					Scheme:      tc.scheme,
					Channels:    channels,
					MeterPower:  true,
					SpanTrace:   1 << 21,
					EpochSeries: 1 << 12,
				})
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
				if got, want := resultDigest(t, res), pinnedSchemeOutput[name]; got != want {
					t.Errorf("digest moved:\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}
