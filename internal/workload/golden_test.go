package workload

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"heteromem/internal/snap"
	"heteromem/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestGeneratorGolden pins the exact trace the shared splitmix64 PRNG
// produces, so an accidental change to the generator's draw order or the
// rng package shows up as a diff rather than silently invalidating every
// checkpointed or archived run.
func TestGeneratorGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, tc := range []struct {
		name string
		seed int64
	}{{"pgbench", 1}, {"FT", 7}} {
		gen, err := NewMemory(tc.name, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "# %s seed=%d\n", tc.name, tc.seed)
		recs, err := trace.Collect(gen, 24)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			fmt.Fprintf(&buf, "%d %#x %d %v\n", rec.Cycle, rec.Addr, rec.CPU, rec.Write)
		}
	}
	path := filepath.Join("testdata", "generator.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("generator output drifted from golden file\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestGeneratorSnapshotRoundTrip checkpoints a generator mid-trace into a
// fresh one and requires the continuations to be bit-identical, for every
// registered workload (each exercises a different stream mix).
func TestGeneratorSnapshotRoundTrip(t *testing.T) {
	for _, name := range append(Names(), ProgramNames()...) {
		var gen *Generator
		var err error
		if _, merr := MemorySpec(name); merr == nil {
			gen, err = NewMemory(name, 11)
		} else {
			gen, err = NewProgram(name, 11)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := gen.SkipTo(5000); err != nil {
			t.Fatal(err)
		}
		e := snap.NewEncoder()
		gen.Snap(e.Section("gen"))
		b, err := e.Finish()
		if err != nil {
			t.Fatal(err)
		}

		var fresh *Generator
		if _, merr := MemorySpec(name); merr == nil {
			fresh, _ = NewMemory(name, 11)
		} else {
			fresh, _ = NewProgram(name, 11)
		}
		d, err := snap.NewDecoder(b)
		if err != nil {
			t.Fatal(err)
		}
		s, err := d.Section("gen")
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Snap(s); s.Err() != nil {
			t.Fatalf("%s: restore: %v", name, s.Err())
		}
		if fresh.Position() != gen.Position() {
			t.Fatalf("%s: position %d after restore, want %d", name, fresh.Position(), gen.Position())
		}
		ra, _ := trace.Collect(gen, 5000)
		rb, _ := trace.Collect(fresh, 5000)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s: record %d diverged after restore: %+v vs %+v", name, i, ra[i], rb[i])
			}
		}
	}
}

// TestGeneratorSkipTo regenerates forward and must agree with a generator
// that walked there record by record.
func TestGeneratorSkipTo(t *testing.T) {
	walked, _ := NewMemory("pgbench", 5)
	ra, _ := trace.Collect(walked, 1235)
	skipped, _ := NewMemory("pgbench", 5)
	if err := skipped.SkipTo(1234); err != nil {
		t.Fatal(err)
	}
	rb, _ := trace.Collect(skipped, 1)
	if ra[1234] != rb[0] {
		t.Fatalf("record 1234 diverged: %+v vs %+v", ra[1234], rb[0])
	}
	if err := skipped.SkipTo(3); err == nil {
		t.Fatal("backward skip accepted")
	}
	if err := skipped.SkipTo(skipped.Position()); err != nil {
		t.Fatalf("zero-length skip: %v", err)
	}
}
