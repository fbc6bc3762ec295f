package dsweep

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"heteromem/internal/experiments"
	"heteromem/internal/sim"
	"heteromem/internal/snap"
	"heteromem/internal/trace"
	"heteromem/internal/workload"
)

// testCells is a small mixed grid: two migrating designs, a static
// baseline, and two cache-scheme cells, sized to finish in well under a
// second each.
func testCells() []CellSpec {
	return []CellSpec{
		{Workload: "pgbench", Seed: 1, Design: "live", Interval: 1000, Records: 60_000, Warmup: 10_000},
		{Workload: "indexer", Seed: 1, Design: "n-1", Interval: 1000, Records: 60_000, Warmup: 10_000},
		{Workload: "FT", Seed: 2, Design: "none", Records: 60_000},
		{Workload: "FT", Seed: 2, Design: "none", Scheme: "alloy", Records: 60_000},
		{Workload: "pgbench", Seed: 1, Design: "live", Interval: 1000, Scheme: "memcache:25", Records: 60_000},
	}
}

// directResult simulates spec uninterrupted in-process — no checkpointing,
// no distribution — and returns the marshaled Result: the byte-identity
// reference for everything the distributed path produces.
func directResult(t *testing.T, spec CellSpec) json.RawMessage {
	t.Helper()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewMemory(spec.Workload, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(trace.NewLimit(gen, cfg.MaxRecords), cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func openManifest(t *testing.T, path string) *experiments.Manifest {
	t.Helper()
	m, err := experiments.OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// startCoordinator builds a coordinator over a fresh loopback listener and
// serves it in the background. The returned wait func joins Serve.
func startCoordinator(t *testing.T, ctx context.Context, cfg CoordinatorConfig) (coord *Coordinator, addr string, wait func() error) {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- c.Serve(ctx, ln) }()
	return c, ln.Addr().String(), func() error {
		select {
		case err := <-errCh:
			return err
		case <-time.After(60 * time.Second):
			t.Fatal("coordinator did not finish")
			return nil
		}
	}
}

// assertSweepMatchesDirect checks the chaos contract's core: every cell's
// ledger entry is byte-identical to an uninterrupted in-process run, and
// the (reopened) manifest holds each cell exactly once.
func assertSweepMatchesDirect(t *testing.T, manifestPath string, cells []CellSpec) {
	t.Helper()
	m := openManifest(t, manifestPath)
	if m.Compacted() {
		t.Error("manifest needed compaction on reopen: duplicate or torn cell lines were written")
	}
	if m.Len() != len(cells) {
		t.Fatalf("manifest holds %d cells, want %d", m.Len(), len(cells))
	}
	for _, spec := range cells {
		key, err := spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		got, ok := m.LookupRaw(key)
		if !ok {
			t.Fatalf("cell %s missing from manifest", spec.Label())
		}
		want := directResult(t, spec)
		if !bytes.Equal(got, want) {
			t.Errorf("cell %s: distributed result differs from uninterrupted run\n got: %.200s\nwant: %.200s",
				spec.Label(), got, want)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := envelope{Type: msgLease, LeaseID: 7, Key: "k", CheckpointEvery: 9,
		Cell:   &CellSpec{Workload: "pgbench", Seed: 3, Design: "live", Interval: 1000, Records: 10},
		Resume: []byte{1, 2, 3}}
	if err := writeFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	var out envelope
	if err := readFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.Type != msgLease || out.LeaseID != 7 || out.Cell == nil || out.Cell.Workload != "pgbench" ||
		!bytes.Equal(out.Resume, []byte{1, 2, 3}) || out.CheckpointEvery != 9 {
		t.Fatalf("round trip mangled the envelope: %+v", out)
	}

	// A frame length beyond the cap must be rejected before allocation.
	bad := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if err := readFrame(bytes.NewReader(bad), &out); err == nil {
		t.Fatal("oversized frame length accepted")
	}
	// Torn body: header promises more than the stream holds.
	torn := []byte{0, 0, 0, 10, '{', '}'}
	if err := readFrame(bytes.NewReader(torn), &out); err == nil {
		t.Fatal("torn frame accepted")
	}
}

func TestCellSpecDeterministicKey(t *testing.T) {
	spec := CellSpec{Workload: "pgbench", Seed: 5, Design: "live", Interval: 1000, Records: 1000, Warmup: 100}
	k1, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := spec.Key()
	if k1 != k2 {
		t.Fatalf("key not deterministic: %s vs %s", k1, k2)
	}
	cfg, _ := spec.Config()
	if want := experiments.CellKey(spec.Workload, spec.Seed, cfg); k1 != want {
		t.Fatalf("key %s does not match the manifest key %s", k1, want)
	}
	// Design aliases must agree (n-1 vs n1), matching the CLI parser.
	a := CellSpec{Workload: "FT", Seed: 1, Design: "n-1", Interval: 500, Records: 10}
	b := a
	b.Design = "n1"
	ka, _ := a.Key()
	kb, _ := b.Key()
	if ka != kb {
		t.Fatal("design aliases n-1 and n1 produced different keys")
	}
}

func TestCellSpecValidate(t *testing.T) {
	bad := []CellSpec{
		{Workload: "no-such-workload", Seed: 1, Design: "none", Records: 10},
		{Workload: "pgbench", Seed: 1, Design: "warp", Records: 10},
		{Workload: "pgbench", Seed: 1, Design: "live", Records: 10}, // no interval
		{Workload: "pgbench", Seed: 1, Design: "none", Records: 0},
		{Workload: "pgbench", Seed: 1, Design: "none", Records: 10, Warmup: 10},
		// Channel counts no hub can build: not a power of two, a stripe
		// wider than the on-package capacity, a channel field beyond the
		// physical address bits.
		{Workload: "pgbench", Seed: 1, Design: "none", Records: 10, Channels: 3},
		{Workload: "pgbench", Seed: 1, Design: "none", Records: 10, Channels: 1024},
		{Workload: "pgbench", Seed: 1, Design: "none", Records: 10, Channels: 1 << 62},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, spec)
		}
	}
	good := CellSpec{Workload: "pgbench", Seed: 1, Design: "live", Interval: 1000, Records: 10, Channels: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
	// An absent design reads as none.
	absent := CellSpec{Workload: "pgbench", Seed: 1, Records: 10}
	none := CellSpec{Workload: "pgbench", Seed: 1, Design: "none", Records: 10}
	if ak, err := absent.Key(); err != nil {
		t.Errorf("absent design rejected: %v", err)
	} else if nk, _ := none.Key(); ak != nk {
		t.Errorf("absent design keys %s, none keys %s", ak, nk)
	}
}

// TestCellSpecSchemeCompat pins the v1→v2 wire compatibility: a cell line
// written before the scheme field existed decodes to the default migration
// scheme and keys identically to an explicit "migrate", while scheme cells
// key differently and reject design combinations that cannot simulate.
func TestCellSpecSchemeCompat(t *testing.T) {
	var legacy CellSpec
	if err := json.Unmarshal(
		[]byte(`{"workload":"pgbench","seed":1,"design":"live","interval":1000,"records":10}`),
		&legacy); err != nil {
		t.Fatal(err)
	}
	if legacy.Scheme != "" {
		t.Fatalf("legacy cell decoded scheme %q", legacy.Scheme)
	}
	if err := legacy.Validate(); err != nil {
		t.Fatal(err)
	}
	explicit := legacy
	explicit.Scheme = "migrate"
	lk, err := legacy.Key()
	if err != nil {
		t.Fatal(err)
	}
	ek, err := explicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	if lk != ek {
		t.Fatalf("absent scheme keys %s, explicit migrate keys %s", lk, ek)
	}

	static := CellSpec{Workload: "pgbench", Seed: 1, Design: "none", Records: 10}
	alloy := static
	alloy.Scheme = "alloy"
	if err := alloy.Validate(); err != nil {
		t.Fatal(err)
	}
	sk, err := static.Key()
	if err != nil {
		t.Fatal(err)
	}
	ak, err := alloy.Key()
	if err != nil {
		t.Fatal(err)
	}
	if sk == ak {
		t.Fatal("alloy cell keys identically to the static cell")
	}
	if alloy.Label() != "pgbench/none/alloy" {
		t.Fatalf("alloy label %q", alloy.Label())
	}

	bad := []CellSpec{
		{Workload: "pgbench", Seed: 1, Design: "live", Interval: 1000, Scheme: "alloy", Records: 10},
		{Workload: "pgbench", Seed: 1, Design: "none", Scheme: "memcache", Records: 10},
		{Workload: "pgbench", Seed: 1, Design: "none", Scheme: "bogus", Records: 10},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("bad scheme spec %d validated: %+v", i, spec)
		}
	}
}

func TestDistributedSweepMatchesDirect(t *testing.T) {
	cells := testCells()
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "sweep.jsonl")
	tel := experiments.NewTelemetry()
	_, addr, wait := startCoordinator(t, context.Background(), CoordinatorConfig{
		Cells:     cells,
		Manifest:  openManifest(t, manifestPath),
		Telemetry: tel,
		SpillDir:  dir,
	})

	// Three workers race for three cells; all run in-process.
	workers := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			workers <- RunWorker(context.Background(), addr, WorkerConfig{Name: fmt.Sprintf("w%d", i)})
		}(i)
	}
	if err := wait(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := <-workers; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	assertSweepMatchesDirect(t, manifestPath, cells)

	// Telemetry saw the whole sweep: all cells planned, started, completed,
	// and every record accounted via heartbeats + completions.
	p := tel.Progress()
	if p.Planned != int64(len(cells)) || p.Completed != int64(len(cells)) || p.Failed != 0 {
		t.Errorf("telemetry progress planned=%d completed=%d failed=%d, want %d/%d/0",
			p.Planned, p.Completed, p.Failed, len(cells), len(cells))
	}
}

// TestTelemetryCountsRecordsAfterLastHeartbeat: a checkpoint cadence that
// does not divide the cell budget leaves records simulated after the last
// heartbeat, which only the completion reports. The sweep totals must count
// them too, so /progress ends at the cells' summed records.
func TestTelemetryCountsRecordsAfterLastHeartbeat(t *testing.T) {
	cells := []CellSpec{
		{Workload: "pgbench", Seed: 1, Design: "live", Interval: 1000, Records: 60_000},
		{Workload: "FT", Seed: 2, Design: "none", Records: 20_000},
	}
	dir := t.TempDir()
	tel := experiments.NewTelemetry()
	_, addr, wait := startCoordinator(t, context.Background(), CoordinatorConfig{
		Cells:           cells,
		Manifest:        openManifest(t, filepath.Join(dir, "sweep.jsonl")),
		Telemetry:       tel,
		SpillDir:        dir,
		CheckpointEvery: 7_000,
	})
	worker := make(chan error, 1)
	go func() { worker <- RunWorker(context.Background(), addr, WorkerConfig{Name: "w0"}) }()
	if err := wait(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := <-worker; err != nil {
		t.Fatalf("worker: %v", err)
	}
	var want uint64
	for _, c := range cells {
		want += c.Records
	}
	if got := tel.Progress().Records; got != want {
		t.Errorf("telemetry records = %d, want the cells' %d", got, want)
	}
}

// stubWorker is a hand-driven protocol client for failure-injection tests.
type stubWorker struct {
	t    *testing.T
	conn net.Conn
}

func dialStub(t *testing.T, addr, name string) *stubWorker {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &stubWorker{t: t, conn: conn}
	reply := s.exchange(envelope{Type: msgHello, Version: ProtocolVersion, Worker: name})
	if reply.Type != msgHello {
		t.Fatalf("handshake reply %q", reply.Type)
	}
	return s
}

func (s *stubWorker) exchange(env envelope) envelope {
	s.t.Helper()
	if err := writeFrame(s.conn, &env); err != nil {
		s.t.Fatal(err)
	}
	var reply envelope
	if err := readFrame(s.conn, &reply); err != nil {
		s.t.Fatal(err)
	}
	return reply
}

func TestConnDropReassignsWithCheckpointResume(t *testing.T) {
	cell := CellSpec{Workload: "pgbench", Seed: 3, Design: "live", Interval: 1000, Records: 40_000}
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "sweep.jsonl")
	ctx := context.Background()
	coord, addr, wait := startCoordinator(t, ctx, CoordinatorConfig{
		Cells:    []CellSpec{cell},
		Manifest: openManifest(t, manifestPath),
		SpillDir: dir,
	})

	// Produce a genuine mid-run checkpoint for the cell, exactly as a
	// worker would have.
	cfg, err := cell.Config()
	if err != nil {
		t.Fatal(err)
	}
	var ckpt []byte
	cfg.CheckpointEvery = 10_000
	cfg.CheckpointSink = func(data []byte, records uint64) error {
		ckpt = append([]byte(nil), data...)
		return errors.New("stop after first checkpoint")
	}
	gen, _ := workload.NewMemory(cell.Workload, cell.Seed)
	if _, err := sim.Run(trace.NewLimit(gen, cfg.MaxRecords), cfg); err == nil {
		t.Fatal("sink error did not abort the checkpoint-producing run")
	}
	if ckpt == nil {
		t.Fatal("no checkpoint produced")
	}

	// A doomed worker takes the lease, heartbeats real progress, then its
	// process "dies": the connection drops without a farewell.
	stub := dialStub(t, addr, "doomed")
	lease := stub.exchange(envelope{Type: msgAcquire})
	if lease.Type != msgLease {
		t.Fatalf("acquire reply %q", lease.Type)
	}
	if ok := stub.exchange(envelope{Type: msgHeartbeat, LeaseID: lease.LeaseID, Records: 10_000, Checkpoint: ckpt}); ok.Type != msgOK {
		t.Fatalf("heartbeat reply %q", ok.Type)
	}
	stub.conn.Close()

	// The next worker to acquire must receive the dead peer's checkpoint as
	// its resume point.
	deadline := time.Now().Add(5 * time.Second)
	var release envelope
	for {
		stub2 := dialStub(t, addr, "observer")
		release = stub2.exchange(envelope{Type: msgAcquire})
		if release.Type == msgLease {
			// Hand the lease back by dropping the conn; a real worker takes
			// over below.
			stub2.conn.Close()
			break
		}
		stub2.conn.Close()
		if time.Now().After(deadline) {
			t.Fatalf("cell never re-leased after conn drop (last reply %q)", release.Type)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !bytes.Equal(release.Resume, ckpt) {
		t.Fatalf("re-leased cell did not carry the dead peer's checkpoint (%d bytes vs %d)",
			len(release.Resume), len(ckpt))
	}

	// A real worker finishes the sweep; the result must match the
	// uninterrupted run byte for byte despite the takeover chain.
	if err := RunWorker(ctx, addr, WorkerConfig{Name: "finisher"}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := wait(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if s := coord.Stats(); s.Takeovers < 2 {
		t.Errorf("stats takeovers = %d, want >= 2 (two dropped connections held leases)", s.Takeovers)
	}
	assertSweepMatchesDirect(t, manifestPath, []CellSpec{cell})
}

func TestLeaseExpiryReassignsSilentWorker(t *testing.T) {
	cell := CellSpec{Workload: "FT", Seed: 1, Design: "n", Interval: 1000, Records: 30_000}
	manifestPath := filepath.Join(t.TempDir(), "sweep.jsonl")
	coord, addr, wait := startCoordinator(t, context.Background(), CoordinatorConfig{
		Cells:    []CellSpec{cell},
		Manifest: openManifest(t, manifestPath),
		LeaseTTL: 150 * time.Millisecond,
	})

	// The silent worker takes the lease and never heartbeats — a hung
	// process rather than a dead one (the connection stays open).
	stub := dialStub(t, addr, "hung")
	lease := stub.exchange(envelope{Type: msgAcquire})
	if lease.Type != msgLease {
		t.Fatalf("acquire reply %q", lease.Type)
	}
	defer stub.conn.Close()

	if err := RunWorker(context.Background(), addr, WorkerConfig{Name: "rescuer"}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := wait(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if s := coord.Stats(); s.Takeovers < 1 {
		t.Errorf("stats takeovers = %d, want >= 1 (lease must expire)", s.Takeovers)
	}
	assertSweepMatchesDirect(t, manifestPath, []CellSpec{cell})
}

// firstCheckpoint returns cell's first checkpoint, taken where its worker
// would take one, and the record count it was taken at.
func firstCheckpoint(t *testing.T, cell CellSpec) (cp []byte, records uint64) {
	t.Helper()
	cfg, err := cell.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointEvery = cell.Records / 3
	cfg.CheckpointSink = func(data []byte, n uint64) error {
		if cp == nil {
			cp, records = append([]byte(nil), data...), n
		}
		return nil
	}
	gen, err := workload.NewMemory(cell.Workload, cell.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(trace.NewLimit(gen, cfg.MaxRecords), cfg); err != nil {
		t.Fatal(err)
	}
	return cp, records
}

// corruptResume returns cell's first checkpoint with a controller payload
// that records a device channel count the configuration does not have: the
// checksums and the config digest hold, so only restoring its state finds
// the damage.
func corruptResume(t *testing.T, cell CellSpec) (cp []byte, records uint64) {
	t.Helper()
	cp, records = firstCheckpoint(t, cell)
	d, err := snap.NewDecoder(cp)
	if err != nil {
		t.Fatal(err)
	}
	e := snap.NewEncoder()
	for _, name := range d.Sections() {
		in, err := d.Section(name)
		if err != nil {
			t.Fatal(err)
		}
		out := e.Section(name)
		for i := 0; ; i++ {
			var b uint8
			if in.U8(&b); in.Err() != nil {
				break
			}
			if name == "ctrl" && i == 32 { // past four clocks: the on-package device's channel count
				b = 99
			}
			out.U8(&b)
		}
	}
	if cp, err = e.Finish(); err != nil {
		t.Fatal(err)
	}
	return cp, records
}

func TestBadResumeCheckpointRecovers(t *testing.T) {
	cell := CellSpec{Workload: "MG", Seed: 4, Design: "live", Interval: 1000, Records: 30_000}
	bad, records := corruptResume(t, cell)
	skewed, _ := firstCheckpoint(t, cell)
	skewed[4]++ // the container's format version, resealed under the file CRC
	binary.LittleEndian.PutUint32(skewed[len(skewed)-4:], crc32.ChecksumIEEE(skewed[:len(skewed)-4]))
	other := cell
	other.Design = "n-1"
	foreign, _ := firstCheckpoint(t, other)
	for _, poison := range []struct {
		name       string
		checkpoint []byte
		records    uint64
	}{
		// Garbage bytes, as if a dying worker had streamed a corrupt
		// checkpoint.
		{"garbage", []byte("not a checkpoint"), 5},
		// A valid container under the right digest whose payload the
		// component readers reject.
		{"invalid-state", bad, records},
		// A real checkpoint written by another snapshot format version.
		{"version-skew", skewed, records},
		// A valid checkpoint of another cell: its config digest differs.
		{"other-config", foreign, records},
	} {
		t.Run(poison.name, func(t *testing.T) {
			manifestPath := filepath.Join(t.TempDir(), "sweep.jsonl")
			coord, addr, wait := startCoordinator(t, context.Background(), CoordinatorConfig{
				Cells:    []CellSpec{cell},
				Manifest: openManifest(t, manifestPath),
			})

			// Poison the cell's takeover state, then drop the connection.
			stub := dialStub(t, addr, "poisoner")
			lease := stub.exchange(envelope{Type: msgAcquire})
			if lease.Type != msgLease {
				t.Fatalf("acquire reply %q", lease.Type)
			}
			if ok := stub.exchange(envelope{Type: msgHeartbeat, LeaseID: lease.LeaseID, Records: poison.records, Checkpoint: poison.checkpoint}); ok.Type != msgOK {
				t.Fatalf("heartbeat reply %q", ok.Type)
			}
			stub.conn.Close()

			// The real worker must detect the unusable resume point, report
			// it, and complete the cell fresh on the retry — not fail
			// permanently.
			if err := RunWorker(context.Background(), addr, WorkerConfig{Name: "healer"}); err != nil {
				t.Fatalf("worker: %v", err)
			}
			if err := wait(); err != nil {
				t.Fatalf("coordinator: %v", err)
			}
			if s := coord.Stats(); s.Failures < 1 || s.BadResumes < 1 {
				t.Errorf("stats failures = %d, bad resumes = %d, want >= 1 each (the bad-resume report)", s.Failures, s.BadResumes)
			}
			assertSweepMatchesDirect(t, manifestPath, []CellSpec{cell})
		})
	}
}

func TestCoordinatorRestartReleasesOnlyIncomplete(t *testing.T) {
	cells := []CellSpec{
		{Workload: "pgbench", Seed: 1, Design: "live", Interval: 1000, Records: 30_000},
		{Workload: "indexer", Seed: 1, Design: "none", Records: 30_000},
	}
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "sweep.jsonl")

	// First life: sweep only the first cell to completion.
	{
		_, addr, wait := startCoordinator(t, context.Background(), CoordinatorConfig{
			Cells:    cells[:1],
			Manifest: openManifest(t, manifestPath),
		})
		if err := RunWorker(context.Background(), addr, WorkerConfig{Name: "w0"}); err != nil {
			t.Fatalf("worker: %v", err)
		}
		if err := wait(); err != nil {
			t.Fatalf("coordinator: %v", err)
		}
	}

	// Second life: the restarted coordinator replays the manifest and must
	// lease only the incomplete cell.
	coord, addr, wait := startCoordinator(t, context.Background(), CoordinatorConfig{
		Cells:    cells,
		Manifest: openManifest(t, manifestPath),
	})
	if s := coord.Stats(); s.Skipped != 1 || s.Planned != 1 {
		t.Fatalf("restart stats skipped=%d planned=%d, want 1/1", s.Skipped, s.Planned)
	}
	if err := RunWorker(context.Background(), addr, WorkerConfig{Name: "w1"}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := wait(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if s := coord.Stats(); s.Completed != 1 {
		t.Fatalf("restart completed %d cells, want exactly 1", s.Completed)
	}
	assertSweepMatchesDirect(t, manifestPath, cells)
}

func TestCoordinatorRestartResumesFromSpilledCheckpoint(t *testing.T) {
	cell := CellSpec{Workload: "pgbench", Seed: 9, Design: "live", Interval: 1000, Records: 40_000}
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "sweep.jsonl")

	// First life: a worker heartbeats one real checkpoint (spilled to dir),
	// then the whole deployment dies.
	cfg, err := cell.Config()
	if err != nil {
		t.Fatal(err)
	}
	var ckpt []byte
	var ckptRecords uint64
	cfg.CheckpointEvery = 10_000
	cfg.CheckpointSink = func(data []byte, records uint64) error {
		ckpt, ckptRecords = append([]byte(nil), data...), records
		return errors.New("stop")
	}
	gen, _ := workload.NewMemory(cell.Workload, cell.Seed)
	_, _ = sim.Run(trace.NewLimit(gen, cfg.MaxRecords), cfg)
	if ckpt == nil {
		t.Fatal("no checkpoint produced")
	}
	{
		ctx, cancel := context.WithCancel(context.Background())
		_, addr, wait := startCoordinator(t, ctx, CoordinatorConfig{
			Cells:    []CellSpec{cell},
			Manifest: openManifest(t, manifestPath),
			SpillDir: dir,
		})
		stub := dialStub(t, addr, "firstlife")
		lease := stub.exchange(envelope{Type: msgAcquire})
		if lease.Type != msgLease {
			t.Fatalf("acquire reply %q", lease.Type)
		}
		if ok := stub.exchange(envelope{Type: msgHeartbeat, LeaseID: lease.LeaseID, Records: ckptRecords, Checkpoint: ckpt}); ok.Type != msgOK {
			t.Fatalf("heartbeat reply %q", ok.Type)
		}
		stub.conn.Close() // worker dies...
		cancel()          // ...and the coordinator is terminated
		if err := wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled coordinator returned %v", err)
		}
	}

	// Second life: the spilled checkpoint must come back as the resume
	// point, and the sweep must still finish byte-identical.
	coord, addr, wait := startCoordinator(t, context.Background(), CoordinatorConfig{
		Cells:    []CellSpec{cell},
		Manifest: openManifest(t, manifestPath),
		SpillDir: dir,
	})
	stub := dialStub(t, addr, "inspector")
	lease := stub.exchange(envelope{Type: msgAcquire})
	if lease.Type != msgLease {
		t.Fatalf("acquire reply %q", lease.Type)
	}
	if !bytes.Equal(lease.Resume, ckpt) {
		t.Fatalf("restarted coordinator lost the spilled checkpoint (%d bytes vs %d)", len(lease.Resume), len(ckpt))
	}
	stub.conn.Close()

	if err := RunWorker(context.Background(), addr, WorkerConfig{Name: "secondlife"}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := wait(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	_ = coord
	assertSweepMatchesDirect(t, manifestPath, []CellSpec{cell})
}

func TestCoordinatorDrainsOnCancel(t *testing.T) {
	cell := CellSpec{Workload: "pgbench", Seed: 1, Design: "none", Records: 30_000}
	ctx, cancel := context.WithCancel(context.Background())
	_, addr, wait := startCoordinator(t, ctx, CoordinatorConfig{
		Cells:    []CellSpec{cell},
		Manifest: openManifest(t, filepath.Join(t.TempDir(), "m.jsonl")),
	})
	cancel()
	if err := wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("drained coordinator returned %v, want context.Canceled", err)
	}
	// Workers arriving after the drain are told the sweep is over.
	if err := RunWorker(context.Background(), addr, WorkerConfig{Name: "late", DialAttempts: 2}); err == nil {
		t.Log("late worker exited cleanly (listener already closed)") // both outcomes acceptable
	}
}

func TestWorkerRejectsVersionMismatch(t *testing.T) {
	_, addr, wait := startCoordinator(t, context.Background(), CoordinatorConfig{
		Cells:    []CellSpec{{Workload: "pgbench", Seed: 1, Design: "none", Records: 10}},
		Manifest: openManifest(t, filepath.Join(t.TempDir(), "m.jsonl")),
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, &envelope{Type: msgHello, Version: ProtocolVersion + 1, Worker: "future"}); err != nil {
		t.Fatal(err)
	}
	var reply envelope
	if err := readFrame(conn, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Type != msgError || !strings.Contains(reply.Error, "version") {
		t.Fatalf("version mismatch answered with %+v", reply)
	}
	// Finish the sweep so the coordinator goroutine exits.
	if err := RunWorker(context.Background(), addr, WorkerConfig{Name: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkerGivesUpOnUnreachableCoordinator(t *testing.T) {
	// A port nothing listens on: bind, note the address, close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	start := time.Now()
	err = RunWorker(context.Background(), addr, WorkerConfig{Name: "lost", DialAttempts: 3})
	if err == nil {
		t.Fatal("worker connected to a closed port")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("dial budget took %v, backoff cap not honored", time.Since(start))
	}
}

func TestNewCoordinatorRejectsBadGrids(t *testing.T) {
	m := openManifest(t, filepath.Join(t.TempDir(), "m.jsonl"))
	cases := []CoordinatorConfig{
		{Manifest: m}, // empty grid
		{Manifest: m, Cells: []CellSpec{{Workload: "pgbench", Seed: 1, Design: "bogus", Records: 10}}},
		{Manifest: m, Cells: []CellSpec{{Workload: "pgbench", Seed: 1, Design: "none", Records: 10, Channels: 3}}},
		{Manifest: m, Cells: []CellSpec{ // duplicate cell
			{Workload: "pgbench", Seed: 1, Design: "none", Records: 10},
			{Workload: "pgbench", Seed: 1, Design: "none", Records: 10},
		}},
		{Cells: []CellSpec{{Workload: "pgbench", Seed: 1, Design: "none", Records: 10}}}, // no manifest
	}
	for i, cfg := range cases {
		if _, err := NewCoordinator(cfg); err == nil {
			t.Errorf("case %d: bad coordinator config accepted", i)
		}
	}
}
