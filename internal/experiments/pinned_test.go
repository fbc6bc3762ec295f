package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"sort"
	"testing"
)

// pinnedDrivers holds the SHA-256 of every registered driver's rendered
// output at the scale TestDriversOutputPinned runs, plus the sharded
// variants (suffix "/c2"). A refactor of the sweep machinery must leave
// every one of them unchanged.
var pinnedDrivers = map[string]string{
	"fig10":     "7ad62bcf1b7f70b8439033121c2bb28473eb6d6ee38938a5b88d3cf6b4866e3f",
	"fig11a":    "51c94fa14b2482046f7fe130275b38e8813b57e76790b2c88cb56a82999bb558",
	"fig11a/c2": "1f6c59882ca993a286b38fdcfeafdb6d44afc3ccd2b2b1a9c24d1666b262fe7f",
	"fig11b":    "915e30f1553dbbb86ba0857ed9c6636e13b6b484b47972cd61738fa502b1fea5",
	"fig11c":    "e861becfd8f6fbb1aa41c392ae95c97e4f5efb55e251365c97cc80c73db65fdd",
	"fig12":     "6214ad0ac286376e0222c8e83e0b74701ac070cdcaad13a7a663e121ebd6b819",
	"fig13":     "99d29e4636d76660655c300bd5586bed9339bc0d2372ec478348f27cc673c54a",
	"fig14":     "ea5e6007934ec27b42c1f9ab5a0aa45c04012130e689f18704614184a06c7078",
	"fig15":     "aae64ef7db70f85d4fa4fe2aa841bf4b6bf37c8a0329213440934fc0e279a0f2",
	"fig16":     "987900831b4033246526a60b3a7ea31527cd88778a24c934d326f31468c22516",
	"fig4":      "3935d98bc51643d951aee46181af0eaf4d90c39c2f1afbd1114c7fe2b1cf5c71",
	"fig5":      "49816b7dcda4b4b681aad3cf58bc90cf1535ffb1658569ef8108a868127fce15",
	"schemes":   "bc099c87616b4038bf53f6cef12883159379efbffc4832bd3890b7020ec8c9ef",
	"table1":    "2e11478c9aae9ada785497801cae82b7e19b76928773b2aa9a0e586cc5045606",
	"table2":    "572de5d4d577b64fe5c78a7dfb55370f92393b65189f6c072d6de92edda7d9fe",
	"table3":    "781b5f9cc65e6482e07d58590d38bfd2ef0743c945f491d3b12dcb9de6d5e0c4",
	"table4":    "3b921e4b722a7c97f961816c939b35b3ffac1d56dc4deb2be8252adfba979f2a",
	"table4/c2": "eb01335a86d301949d44ce605e8ec7e153baa75e12ab341e31061d102344cbd4",
}

// pinnedParams is the fixed scale of the pinned runs: Section II drivers
// (fig4, fig5) replay EP.C and FT.C, every other driver pgbench and
// SPEC2006.
func pinnedParams(name string) Params {
	p := Params{Records: 20_000, Warmup: 10_000, Seed: 1, Workloads: []string{"pgbench", "SPEC2006"}}
	if name == "fig4" || name == "fig5" {
		p.Workloads = []string{"EP.C", "FT.C"}
	}
	return p
}

func renderDigest(t *testing.T, name string, p Params) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Registry()[name](context.Background(), &buf, p); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestDriversOutputPinned pins every driver's rendered output, one channel
// and (for fig11a and table4) two, and checks that a table4 sweep replayed
// through its own manifest serves every cell from it and prints the same
// bytes.
func TestDriversOutputPinned(t *testing.T) {
	got := map[string]string{}
	for _, name := range Names() {
		got[name] = renderDigest(t, name, pinnedParams(name))
	}
	for _, name := range []string{"fig11a", "table4"} {
		p := pinnedParams(name)
		p.Channels = 2
		got[name+"/c2"] = renderDigest(t, name, p)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want, ok := pinnedDrivers[k]; !ok || got[k] != want {
			t.Errorf("%s: output digest %s, want %s", k, got[k], want)
		}
	}
	if len(pinnedDrivers) != len(got) {
		t.Errorf("%d pinned digests, want %d", len(pinnedDrivers), len(got))
	}

	// table4 twice through one manifest: 2 workloads x (1 static + 6 pages
	// x 2 intervals) = 26 cells, all served on the second pass.
	const table4Cells = 26
	man, err := OpenManifest(filepath.Join(t.TempDir(), "table4.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer man.Close()
	p := pinnedParams("table4")
	p.Manifest = man
	for pass := 1; pass <= 2; pass++ {
		if d := renderDigest(t, "table4", p); d != got["table4"] {
			t.Errorf("table4 through the manifest, pass %d: digest %s, want %s", pass, d, got["table4"])
		}
	}
	if man.Ran() != table4Cells || man.Hits() != table4Cells {
		t.Errorf("manifest ran %d and served %d cells, want %d each", man.Ran(), man.Hits(), table4Cells)
	}
}
