package sim

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"heteromem/internal/core"
	"heteromem/internal/scheme"
	"heteromem/internal/snap"
	"heteromem/internal/workload"
)

// section is one named checkpoint payload.
type section struct {
	name    string
	payload []byte
}

// splitCheckpoint returns a valid checkpoint's sections in file order.
func splitCheckpoint(t testing.TB, cp []byte) []section {
	t.Helper()
	d, err := snap.NewDecoder(cp)
	if err != nil {
		t.Fatal(err)
	}
	var secs []section
	for _, name := range d.Sections() {
		s, err := d.Section(name)
		if err != nil {
			t.Fatal(err)
		}
		sec := section{name: name}
		for {
			var b uint8
			if s.U8(&b); s.Err() != nil {
				break // the payload's end
			}
			sec.payload = append(sec.payload, b)
		}
		secs = append(secs, sec)
	}
	return secs
}

// sealCheckpoint frames sections into a container with fresh checksums.
func sealCheckpoint(t testing.TB, secs []section) []byte {
	t.Helper()
	e := snap.NewEncoder()
	for _, sec := range secs {
		s := e.Section(sec.name)
		for i := range sec.payload {
			s.U8(&sec.payload[i])
		}
	}
	b, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// payloadOf returns the payload of the named section.
func payloadOf(t testing.TB, secs []section, name string) []byte {
	t.Helper()
	for _, sec := range secs {
		if sec.name == name {
			return sec.payload
		}
	}
	t.Fatalf("no %q section", name)
	return nil
}

// TestResumeRejectsHostileCounts: a count read from a checkpoint whose
// checksums are valid is bounded by the payload behind it, so a hostile
// retire-queue count is rejected as corrupt instead of driving a
// multi-gigabyte allocation.
func TestResumeRejectsHostileCounts(t *testing.T) {
	cfg := equivConfig(core.DesignN1, true)
	secs := splitCheckpoint(t, captureOne(t, cfg))
	ctrl := payloadOf(t, secs, "ctrl")
	// The payload ends with the retire-queue count, the retire-queued
	// count, the two degrade flags and the power-meter flag: an empty queue
	// leaves the first count 11 bytes from the end.
	at := len(ctrl) - 11
	if n := binary.LittleEndian.Uint32(ctrl[at:]); n != 0 {
		t.Fatalf("retire-queue count is %d, want an empty queue", n)
	}
	binary.LittleEndian.PutUint32(ctrl[at:], 0xFFFFFFFF)
	bad := cfg
	bad.Resume = sealCheckpoint(t, secs)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Run(equivSource(t), bad)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("err = %v, want snap.ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
		t.Fatalf("rejecting the checkpoint allocated %d MiB", grew>>20)
	}
}

// fuzzConfigs are the configurations FuzzCheckpointRestore restores under;
// its seed corpus holds real payloads of each, taken at fuzzRecords. Short
// epochs put swaps in flight that early, and 512 KiB sub-blocks keep their
// copy legs few, so the payloads stay small enough to fuzz.
func fuzzConfigs(t testing.TB) []Config {
	small := func(design core.Design, faults bool, channels int, sch string) Config {
		cfg := equivConfig(design, faults)
		cfg.Migration.SwapInterval = 100
		cfg.Geometry.SubBlockSize = 512 << 10
		cfg.Geometry.OnBanksPerCh = 8
		cfg.Channels = channels
		var err error
		if cfg.Scheme, err = scheme.Parse(sch); err != nil {
			t.Fatal(err)
		}
		if sch == "alloy-pred" {
			cfg.Migration = nil
		}
		return cfg
	}
	return []Config{
		small(core.DesignN1, true, 1, ""),
		small(core.DesignLive, false, 2, ""),
		small(core.DesignLive, false, 1, "alloy-pred"),
		small(core.DesignLive, true, 1, "memcache"),
	}
}

// fuzzRecords is where the fuzz target's base checkpoints are taken.
const fuzzRecords = 300

// firstCheckpoint runs cfg and returns the checkpoint taken after n records.
func firstCheckpoint(t testing.TB, cfg Config, n uint64) []byte {
	t.Helper()
	var cp []byte
	cfg.CheckpointEvery = n
	cfg.CheckpointSink = func(data []byte, _ uint64) error {
		if cp == nil {
			cp = append([]byte(nil), data...)
		}
		return nil
	}
	gen, err := workload.NewMemory("pgbench", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(gen, cfg); err != nil {
		t.Fatal(err)
	}
	return cp
}

// FuzzCheckpointRestore feeds arbitrary bytes to the component readers: the
// fuzzed payload replaces one section (the source, or a channel's
// controller) of a real checkpoint whose config digest matches, the
// container is resealed so every checksum holds, and the result is
// restored into a freshly built hub. Restoring must never panic or
// allocate without bound, and every rejection must wrap snap.ErrCorrupt.
func FuzzCheckpointRestore(f *testing.F) {
	cfgs := fuzzConfigs(f)
	bases := make([][]section, len(cfgs))
	for i, cfg := range cfgs {
		bases[i] = splitCheckpoint(f, firstCheckpoint(f, cfg, fuzzRecords))
	}
	f.Fuzz(func(t *testing.T, which, target uint8, payload []byte) {
		i := int(which) % len(cfgs)
		secs := append([]section(nil), bases[i]...)
		// Section 0 is meta, which carries the digest; fuzz the rest.
		secs[1+int(target)%(len(secs)-1)].payload = payload
		hub, _, _, err := newHub(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := restoreCheckpoint(cfgs[i], equivSource(t), hub, sealCheckpoint(t, secs)); err != nil && !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("restore error does not wrap snap.ErrCorrupt: %v", err)
		}
	})
}
