package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heteromem/internal/core"
	"heteromem/internal/scheme"
	"heteromem/internal/sim"
)

// manifestParams is a small but real sweep: Fig. 11 at one interval with
// one workload is 6 granularities x 3 designs = 18 cells.
func manifestParams(man *Manifest) Params {
	return Params{
		Records: 20_000, Warmup: 5_000, Seed: 1,
		Workloads: []string{"pgbench"}, Parallelism: 1, Manifest: man,
	}
}

// TestManifestKillAndResume is the sweep-resilience contract: a sweep
// killed mid-flight and restarted against its manifest re-runs only the
// cells that had not completed, and produces identical results.
func TestManifestKillAndResume(t *testing.T) {
	const cells = 18 // pgbench x 6 granularities x 3 designs
	path := filepath.Join(t.TempDir(), "sweep.jsonl")

	// The uninterrupted sweep, manifest-free, is the reference.
	want, err := Fig11Data(context.Background(), manifestParams(nil), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != cells {
		t.Fatalf("sweep has %d cells, want %d", len(want), cells)
	}

	// Kill the sweep once at least killAfter cells have committed: cancel
	// the context and let forEach abort between jobs.
	const killAfter = 5
	man, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for man.Ran() < killAfter {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	if _, err := Fig11Data(ctx, manifestParams(man), 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep: err = %v, want context.Canceled", err)
	}
	committed := man.Ran()
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	if committed < killAfter || committed >= cells {
		t.Fatalf("kill committed %d cells, want in [%d, %d)", committed, killAfter, cells)
	}

	// Resume: a fresh process opens the same manifest and re-runs the grid.
	man2, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer man2.Close()
	if got := man2.Len(); uint64(got) != committed {
		t.Fatalf("reopened manifest holds %d cells, want %d", got, committed)
	}
	got, err := Fig11Data(context.Background(), manifestParams(man2), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if man2.Hits() != committed {
		t.Errorf("resume served %d cells from the manifest, want %d", man2.Hits(), committed)
	}
	if want := cells - committed; man2.Ran() != want {
		t.Errorf("resume re-ran %d cells, want only the %d incomplete ones", man2.Ran(), want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed sweep diverged from the uninterrupted run:\n got %+v\nwant %+v", got, want)
	}
}

// TestManifestTornLine verifies crash tolerance of the file itself: a kill
// mid-append leaves a torn final line, which reopen must skip while keeping
// every complete record.
func TestManifestTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	man, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default()
	cfg.MaxRecords = 123
	if err := man.store("pgbench", 1, cfg, sim.Result{Records: 123}); err != nil {
		t.Fatal(err)
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the torn append.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn|1|456|abc","result":{"Rec`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	man2, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if man2.Len() != 1 {
		t.Fatalf("reopened manifest holds %d cells, want 1 (torn line skipped)", man2.Len())
	}
	res, ok, err := man2.lookup("pgbench", 1, cfg)
	if err != nil || !ok {
		t.Fatalf("lookup after torn line: ok=%v err=%v", ok, err)
	}
	if res.Records != 123 {
		t.Fatalf("restored Records = %d, want 123", res.Records)
	}

	// The next append must start on a fresh line so the torn bytes never
	// merge with a valid record.
	cfg2 := cfg
	cfg2.MaxRecords = 456
	if err := man2.store("pgbench", 1, cfg2, sim.Result{Records: 456}); err != nil {
		t.Fatal(err)
	}
	if err := man2.Close(); err != nil {
		t.Fatal(err)
	}
	man3, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer man3.Close()
	if man3.Len() != 2 {
		t.Fatalf("manifest holds %d cells after post-torn append, want 2", man3.Len())
	}
}

// TestManifestCompaction: reopening a ledger that holds duplicate cell
// lines (takeover races), garbage, and a torn trailing fragment rewrites it
// atomically down to one well-formed line per cell — and a clean ledger is
// left untouched, so compaction does not churn healthy files.
func TestManifestCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	man, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	cfgA := sim.Default()
	cfgA.MaxRecords = 111
	cfgB := sim.Default()
	cfgB.MaxRecords = 222
	if err := man.store("pgbench", 1, cfgA, sim.Result{Records: 111}); err != nil {
		t.Fatal(err)
	}
	if err := man.store("tpcc", 1, cfgB, sim.Result{Records: 222}); err != nil {
		t.Fatal(err)
	}
	// A duplicate line for the first cell (as a pre-dedup build or a
	// takeover race would append), superseding the original with a newer
	// Result, plus garbage and a torn fragment.
	if err := man.store("pgbench", 1, cfgA, sim.Result{Records: 111, LastCycle: 99}); err != nil {
		t.Fatal(err)
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not json at all\n{\"key\":\"torn|1|2|3\",\"result\":{\"Rec"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	man2, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !man2.Compacted() {
		t.Fatal("reopen did not compact a ledger with duplicate and torn lines")
	}
	if man2.Len() != 2 {
		t.Fatalf("compacted manifest holds %d cells, want 2", man2.Len())
	}
	// The superseding (latest) line must win for the duplicated cell.
	res, ok, err := man2.lookup("pgbench", 1, cfgA)
	if err != nil || !ok {
		t.Fatalf("lookup after compaction: ok=%v err=%v", ok, err)
	}
	if res.LastCycle != 99 {
		t.Fatalf("compaction kept LastCycle=%d, want the superseding line's 99", res.LastCycle)
	}
	// Appends after compaction still land on their own lines.
	cfgC := sim.Default()
	cfgC.MaxRecords = 333
	if err := man2.store("ycsb", 1, cfgC, sim.Result{Records: 333}); err != nil {
		t.Fatal(err)
	}
	if err := man2.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte{'\n'})
	if len(lines) != 3 {
		t.Fatalf("compacted file has %d lines, want 3:\n%s", len(lines), data)
	}
	for i, line := range lines {
		var rec manifestRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" {
			t.Fatalf("line %d is not a well-formed record: %v\n%s", i, err, line)
		}
	}

	// A clean ledger must reopen without a rewrite.
	man3, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer man3.Close()
	if man3.Compacted() {
		t.Fatal("reopen compacted an already-clean ledger")
	}
	if man3.Len() != 3 {
		t.Fatalf("clean reopen holds %d cells, want 3", man3.Len())
	}
}

// TestManifestStoreRawIdempotent: the coordinator's duplicate-completion
// path — the first result for a cell wins, later ones are dropped without
// touching the file.
func TestManifestStoreRawIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	man, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default()
	cfg.MaxRecords = 10
	first, _ := json.Marshal(sim.Result{Records: 10})
	second, _ := json.Marshal(sim.Result{Records: 10, LastCycle: 7})
	if stored, err := man.StoreRaw("pgbench", 1, cfg, first); err != nil || !stored {
		t.Fatalf("first StoreRaw: stored=%v err=%v", stored, err)
	}
	if stored, err := man.StoreRaw("pgbench", 1, cfg, second); err != nil || stored {
		t.Fatalf("duplicate StoreRaw: stored=%v err=%v, want dropped", stored, err)
	}
	raw, ok := man.LookupRaw(CellKey("pgbench", 1, cfg))
	if !ok {
		t.Fatal("LookupRaw missed a stored cell")
	}
	if !bytes.Equal(raw, first) {
		t.Fatalf("LookupRaw = %s, want the first write %s", raw, first)
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte{'\n'}); n != 1 {
		t.Fatalf("file has %d lines after a duplicate store, want 1", n)
	}
}

// TestManifestStoreRawFailureRecordsNothing: an append that does not reach
// the disk must not mark the cell done, or the coordinator would complete a
// cell that has no line in the ledger and count its retry as a duplicate.
func TestManifestStoreRawFailureRecordsNothing(t *testing.T) {
	man, err := OpenManifest(filepath.Join(t.TempDir(), "sweep.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default()
	cfg.MaxRecords = 10
	result, _ := json.Marshal(sim.Result{Records: 10})
	man.file.Close() // the append below can no longer reach the disk
	for attempt := 1; attempt <= 2; attempt++ {
		if stored, err := man.StoreRaw("pgbench", 1, cfg, result); err == nil || stored {
			t.Fatalf("StoreRaw attempt %d on a closed ledger: stored=%v err=%v", attempt, stored, err)
		}
	}
	if _, ok := man.LookupRaw(CellKey("pgbench", 1, cfg)); ok {
		t.Fatal("a cell whose append failed is reported done")
	}
	if n := man.Len(); n != 0 {
		t.Fatalf("ledger holds %d cells after failed appends, want 0", n)
	}
}

// TestManifestStoreRawConcurrentDuplicates: completions of one cell racing
// from several coordinator connections store it exactly once.
func TestManifestStoreRawConcurrentDuplicates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	man, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default()
	cfg.MaxRecords = 10
	result, _ := json.Marshal(sim.Result{Records: 10})
	var (
		wg     sync.WaitGroup
		stored atomic.Int32
	)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, err := man.StoreRaw("pgbench", 1, cfg, result)
			if err != nil {
				t.Error(err)
			}
			if ok {
				stored.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := stored.Load(); n != 1 {
		t.Fatalf("%d racing completions stored, want 1", n)
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte{'\n'}); n != 1 {
		t.Fatalf("ledger has %d lines, want 1", n)
	}
}

// TestManifestKeySeparatesCells: cells differing only in record budget or
// configuration must not collide.
func TestManifestKeySeparatesCells(t *testing.T) {
	a := sim.Default()
	a.MaxRecords = 1000
	b := a
	b.MaxRecords = 2000
	c := a
	c.Warmup = 500
	keys := map[string]bool{
		manifestKey("pgbench", 1, a): true,
		manifestKey("pgbench", 2, a): true,
		manifestKey("tpcc", 1, a):    true,
		manifestKey("pgbench", 1, b): true,
		manifestKey("pgbench", 1, c): true,
	}
	if len(keys) != 5 {
		t.Fatalf("cell keys collide: %v", keys)
	}
}

// TestManifestWithTelemetry: the two sweep layers compose — manifest hits
// still fold their stored metrics into the sweep totals.
func TestManifestWithTelemetry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	man, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	p := manifestParams(man)
	p.Telemetry = NewTelemetry()
	cfg := traceConfig(Granularities[len(Granularities)-1], nil, 20_000, 5_000)
	packed := newPackedTraces()
	first, err := p.runTrace(packed, "pgbench", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Metrics == nil {
		t.Fatal("telemetry run did not collect metrics")
	}
	again, err := p.runTrace(packed, "pgbench", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if man.Ran() != 1 || man.Hits() != 1 {
		t.Fatalf("Ran=%d Hits=%d, want 1/1", man.Ran(), man.Hits())
	}
	b1, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("manifest hit diverged from the original run:\n got %s\nwant %s", b2, b1)
	}
	if p.Telemetry.records.Load() != first.Records+again.Records {
		t.Fatalf("telemetry records = %d, want %d", p.Telemetry.records.Load(), first.Records+again.Records)
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestManifestSchemeFields pins the design/scheme ledger columns: stored
// cells carry the names derived from their config, pre-scheme cells stay
// field-free, and ReadManifest surfaces both for cross-scheme reporting.
func TestManifestSchemeFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	man, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	static := sim.Default()
	static.MaxRecords = 10
	mig := sim.Default()
	mig.MaxRecords = 10
	mig.Migration = &core.Options{Design: core.DesignLive, SwapInterval: 1000}
	cache := sim.Default()
	cache.MaxRecords = 10
	cache.Scheme, _ = scheme.Parse("alloy-pred")
	for _, c := range []sim.Config{static, mig, cache} {
		if err := man.store("pgbench", 1, c, sim.Result{Records: 10}); err != nil {
			t.Fatal(err)
		}
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := ReadManifest(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("ReadManifest returned %d entries, want 3", len(entries))
	}
	want := []struct{ design, scheme string }{{"", ""}, {"Live", ""}, {"", "alloy-pred"}}
	for i, w := range want {
		if entries[i].Design != w.design || entries[i].Scheme != w.scheme {
			t.Errorf("entry %d: design=%q scheme=%q, want %q/%q",
				i, entries[i].Design, entries[i].Scheme, w.design, w.scheme)
		}
		if entries[i].Workload != "pgbench" || entries[i].Result.Records != 10 {
			t.Errorf("entry %d payload wrong: %+v", i, entries[i])
		}
	}
}
