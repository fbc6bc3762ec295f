// Package dsweep is the fault-tolerant distributed sweep service: a
// coordinator owns the sweep's durable ledger (experiments.Manifest) and
// hands out cell leases to workers over TCP; workers simulate cells and
// stream back per-cell progress and checkpoints as lease-renewing
// heartbeats. A worker that dies — missed heartbeats or a dropped
// connection — loses its lease and the cell is reassigned, with the new
// worker resuming from the dead peer's last checkpoint. Results are
// deterministic (internal/sim's resume-equivalence contract), so a sweep
// that survives any number of worker crashes produces output byte-identical
// to an uninterrupted single-process sweep. See DESIGN.md section 12.
package dsweep

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"heteromem/internal/experiments"
	"heteromem/internal/flog"
	"heteromem/internal/obs"
	"heteromem/internal/sim"
	"heteromem/internal/snap"
)

// Coordinator defaults.
const (
	DefaultLeaseTTL    = 15 * time.Second
	DefaultMaxAttempts = 5

	// defaultCheckpointDivisor sets the per-cell checkpoint cadence when
	// CoordinatorConfig.CheckpointEvery is zero: records/divisor, so every
	// cell heartbeats a handful of times regardless of its budget.
	defaultCheckpointDivisor = 8

	// drainGrace is how long shutdown lets connected workers discover the
	// sweep is over (their next acquire answers msgDone) before their
	// connections are cut. Covers the worker-side wait backoff cap with
	// margin.
	drainGrace = 3 * time.Second
)

// CoordinatorConfig configures a sweep coordinator.
type CoordinatorConfig struct {
	// Cells is the sweep grid. Cells whose key is already in the manifest
	// are skipped (a restarted coordinator re-leases only incomplete work).
	Cells []CellSpec

	// Manifest is the durable ledger; every completed cell is fsync'd into
	// it before the completion is acknowledged. Required.
	Manifest *experiments.Manifest

	// Telemetry, when non-nil, receives sweep progress: planned cells,
	// lease lifecycles, and per-heartbeat record counts (the /progress
	// endpoint advances while cells are still executing remotely).
	Telemetry *experiments.Telemetry

	// LeaseTTL is how long a lease survives without a heartbeat
	// (0 = DefaultLeaseTTL). It must comfortably exceed the wall time
	// between a worker's checkpoints, which is what paces heartbeats.
	LeaseTTL time.Duration

	// CheckpointEvery is the per-cell checkpoint (and heartbeat) cadence in
	// records (0 = records/8, at least 1).
	CheckpointEvery uint64

	// SpillDir, when set, persists each cell's latest heartbeat checkpoint
	// (atomic write + fsync), so a restarted coordinator resumes takeover
	// cells mid-run instead of from scratch. Stale files whose config
	// digest no longer matches the cell are ignored.
	SpillDir string

	// MaxAttempts bounds how many times one cell may be leased before the
	// coordinator gives up on it (0 = DefaultMaxAttempts).
	MaxAttempts int

	// Logf, when non-nil, receives coordinator lifecycle logs.
	Logf func(format string, args ...any)

	// Journal, when non-nil, receives one structured record per lease
	// lifecycle event (planned, leased, heartbeat, completed, expired,
	// revoked, bad resume, duplicate, ...). The journal alone suffices to
	// reconstruct the sweep's cross-host history — hmreport -fleet builds
	// its timeline and post-mortem from it. Nil-safe: no journal, no cost.
	Journal *flog.Journal
}

// Stats summarizes a sweep's execution.
type Stats struct {
	Planned    int // incomplete cells at coordinator start
	Skipped    int // cells already complete in the manifest
	Completed  int // cells completed during this run
	Failed     int // cells abandoned after MaxAttempts
	Takeovers  int // leases revoked by expiry or connection drop
	Expiries   int // the subset of Takeovers caused by TTL expiry (missed heartbeats)
	Failures   int // worker-reported cell failures
	BadResumes int // failures where the shipped resume checkpoint was unusable
	Duplicates int // completions dropped by the manifest's first-write-wins
}

// cell lifecycle phases.
type cellPhase int

const (
	cellPending cellPhase = iota
	cellLeased
	cellDone
	cellFailed
)

// cellState is one sweep cell's coordinator-side state.
type cellState struct {
	spec  CellSpec
	key   string
	cfg   sim.Config
	label string

	phase    cellPhase
	attempts int
	lastErr  error

	// Lease bookkeeping, valid while phase == cellLeased.
	leaseID  uint64
	worker   string
	began    time.Time
	deadline time.Time

	// Takeover state: the latest heartbeat's progress and checkpoint. A
	// reassigned lease ships checkpoint back out as its resume point.
	records    uint64
	checkpoint []byte

	// lastBeat is when the current lease last heartbeated (zero until the
	// first one); feeds the heartbeat-interval histogram.
	lastBeat time.Time
}

// workerState is the coordinator's per-worker health ledger, keyed by the
// worker's self-reported name. It backs the /progress fleet table and the
// per-worker active-cell gauges on /metrics.
type workerState struct {
	cells    int       // leases currently held
	lastBeat time.Time // newest heartbeat (zero until the first)
	records  uint64    // records attributed to this worker (heartbeat deltas + completions)
	first    time.Time // first time the coordinator saw this worker
}

// Coordinator distributes a sweep's cells to workers under leases and owns
// the manifest ledger. One Coordinator serves one sweep; construct with
// NewCoordinator and drive with Serve.
type Coordinator struct {
	cfg CoordinatorConfig
	ttl time.Duration

	mu        sync.Mutex
	order     []*cellState
	byLease   map[uint64]*cellState
	nextLease uint64
	stats     Stats
	draining  bool
	resolved  chan struct{} // closed once every cell is done or failed
	isDone    bool

	// Fleet observability, all guarded by mu (the obs instruments are
	// single-threaded by design; the coordinator's lock serializes them).
	workers    map[string]*workerState
	hbInterval *obs.Histogram // ms between consecutive heartbeats on one lease
	hbRTT      *obs.Histogram // µs, worker-measured heartbeat round trip
	ckptBytes  *obs.Histogram // bytes per shipped checkpoint
}

// NewCoordinator validates the grid against the manifest and builds a
// coordinator. Cells already recorded in the manifest are marked complete;
// spilled checkpoints for incomplete cells are loaded as resume points.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Manifest == nil {
		return nil, errors.New("dsweep: coordinator needs a manifest")
	}
	if len(cfg.Cells) == 0 {
		return nil, errors.New("dsweep: empty sweep grid")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	c := &Coordinator{
		cfg:      cfg,
		ttl:      cfg.LeaseTTL,
		byLease:  map[uint64]*cellState{},
		resolved: make(chan struct{}),
		workers:  map[string]*workerState{},
		// Heartbeat intervals span one checkpoint (~ms) to a full TTL (~s);
		// RTTs span loopback (~µs) to congested WAN (~s); checkpoints run
		// from a few hundred bytes to the 256 MiB frame cap.
		hbInterval: obs.NewHistogram(obs.ExpBuckets(1, 18)),   // 1ms .. ~131s
		hbRTT:      obs.NewHistogram(obs.ExpBuckets(16, 18)),  // 16µs .. ~2.1s
		ckptBytes:  obs.NewHistogram(obs.ExpBuckets(256, 18)), // 256B .. 32MiB
	}
	seen := map[string]bool{}
	for _, spec := range cfg.Cells {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		scfg, err := spec.Config()
		if err != nil {
			return nil, err
		}
		key := experiments.CellKey(spec.Workload, spec.Seed, scfg)
		if seen[key] {
			return nil, fmt.Errorf("dsweep: duplicate cell %s in grid", spec.Label())
		}
		seen[key] = true
		st := &cellState{spec: spec, key: key, cfg: scfg, label: spec.Label()}
		if _, done := cfg.Manifest.LookupRaw(key); done {
			st.phase = cellDone
			c.stats.Skipped++
			cfg.Journal.Emit(flog.Record{Event: flog.EvSkipped, Cell: st.label, Key: key})
		} else {
			c.stats.Planned++
			c.loadSpill(st)
			cfg.Journal.Emit(flog.Record{Event: flog.EvPlanned, Cell: st.label, Key: key, Records: st.records})
		}
		c.order = append(c.order, st)
	}
	cfg.Telemetry.AddPlanned(c.stats.Planned)
	// The coordinator's lease/heartbeat metrics and the per-worker health
	// table ride the same telemetry endpoint as the sweep totals, so one
	// -listen address observes the whole fleet.
	cfg.Telemetry.AddCollector(c.WriteMetrics)
	cfg.Telemetry.SetWorkerHealth(c.WorkerHealth)
	if c.stats.Planned == 0 {
		c.isDone = true
		close(c.resolved)
	}
	return c, nil
}

// Stats returns a snapshot of the sweep statistics.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// touchWorker returns w's health row, creating it on first sight. Callers
// hold c.mu.
func (c *Coordinator) touchWorker(name string) *workerState {
	ws, ok := c.workers[name]
	if !ok {
		ws = &workerState{first: time.Now()}
		c.workers[name] = ws
	}
	return ws
}

// WriteMetrics renders the coordinator's fleet metrics in Prometheus text
// exposition format: lease gauges and lifecycle counters, per-worker
// active-cell gauges, and the heartbeat-interval / heartbeat-RTT /
// checkpoint-size histograms. Registered with the sweep Telemetry as a
// /metrics collector, so hmsim -coordinate -listen serves it.
func (c *Coordinator) WriteMetrics(b *strings.Builder) {
	c.mu.Lock()
	stats := c.stats
	outstanding := len(c.byLease)
	type workerRow struct {
		name  string
		cells int
	}
	rows := make([]workerRow, 0, len(c.workers))
	for name, ws := range c.workers {
		rows = append(rows, workerRow{name, ws.cells})
	}
	hbi, rtt, ckpt := c.hbInterval.Snapshot(), c.hbRTT.Snapshot(), c.ckptBytes.Snapshot()
	c.mu.Unlock()

	fmt.Fprintf(b, "# TYPE dsweep_leases_outstanding gauge\ndsweep_leases_outstanding %d\n", outstanding)
	fmt.Fprintf(b, "# TYPE dsweep_cells_completed_total counter\ndsweep_cells_completed_total %d\n", stats.Completed)
	fmt.Fprintf(b, "# TYPE dsweep_cells_failed_total counter\ndsweep_cells_failed_total %d\n", stats.Failed)
	fmt.Fprintf(b, "# TYPE dsweep_lease_expiries_total counter\ndsweep_lease_expiries_total %d\n", stats.Expiries)
	fmt.Fprintf(b, "# TYPE dsweep_takeovers_total counter\ndsweep_takeovers_total %d\n", stats.Takeovers)
	fmt.Fprintf(b, "# TYPE dsweep_duplicates_total counter\ndsweep_duplicates_total %d\n", stats.Duplicates)
	fmt.Fprintf(b, "# TYPE dsweep_bad_resumes_total counter\ndsweep_bad_resumes_total %d\n", stats.BadResumes)
	fmt.Fprintf(b, "# TYPE dsweep_worker_failures_total counter\ndsweep_worker_failures_total %d\n", stats.Failures)
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	b.WriteString("# TYPE dsweep_worker_active_cells gauge\n")
	for _, r := range rows {
		fmt.Fprintf(b, "dsweep_worker_active_cells{worker=\"%s\"} %d\n", experiments.PromLabel(r.name), r.cells)
	}
	experiments.WritePromHistogram(b, "dsweep_heartbeat_interval_ms", hbi)
	experiments.WritePromHistogram(b, "dsweep_heartbeat_rtt_us", rtt)
	experiments.WritePromHistogram(b, "dsweep_checkpoint_bytes", ckpt)
}

// WorkerHealth assembles the /progress fleet health table: one row per
// worker the coordinator has seen, with its held-lease count, heartbeat
// staleness, and lifetime throughput.
func (c *Coordinator) WorkerHealth() []experiments.WorkerHealth {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]experiments.WorkerHealth, 0, len(c.workers))
	for name, ws := range c.workers {
		h := experiments.WorkerHealth{
			Name:                 name,
			Cells:                ws.cells,
			LastHeartbeatSeconds: -1,
			Records:              ws.records,
		}
		if !ws.lastBeat.IsZero() {
			h.LastHeartbeatSeconds = now.Sub(ws.lastBeat).Seconds()
		}
		if alive := now.Sub(ws.first).Seconds(); alive > 0 {
			h.RecordsPerSec = float64(ws.records) / alive
		}
		out = append(out, h)
	}
	return out
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// checkpointEvery picks the cell's checkpoint cadence.
func (c *Coordinator) checkpointEvery(st *cellState) uint64 {
	if c.cfg.CheckpointEvery > 0 {
		return c.cfg.CheckpointEvery
	}
	every := st.spec.Records / defaultCheckpointDivisor
	if every == 0 {
		every = 1
	}
	return every
}

// spillPath names a cell's checkpoint spill file. The key holds separator
// characters, so the name is its fnv-64a hash; a (cosmically unlikely)
// collision is still safe because the config digest inside the checkpoint
// is verified before use.
func (c *Coordinator) spillPath(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(c.cfg.SpillDir, fmt.Sprintf("%016x.ckpt", h.Sum64()))
}

// loadSpill restores a cell's resume point from the spill dir, if present
// and taken under the cell's exact configuration.
func (c *Coordinator) loadSpill(st *cellState) {
	if c.cfg.SpillDir == "" {
		return
	}
	data, err := os.ReadFile(c.spillPath(st.key))
	if err != nil {
		return
	}
	info, err := sim.InspectCheckpoint(data)
	if err != nil || info.ConfigDigest != sim.ConfigDigest(st.cfg) {
		c.logf("dsweep: ignoring stale spill checkpoint for %s", st.label)
		return
	}
	st.checkpoint = data
	st.records = info.Records
	c.logf("dsweep: %s resumes from spilled checkpoint at record %d", st.label, info.Records)
}

// writeSpill durably persists a cell's latest checkpoint. A crash
// mid-write leaves the previous spill intact.
func (c *Coordinator) writeSpill(st *cellState) {
	if c.cfg.SpillDir == "" || st.checkpoint == nil {
		return
	}
	if err := snap.WriteFile(c.spillPath(st.key), st.checkpoint, 0o600); err != nil {
		c.logf("dsweep: spill %s: %v", st.label, err)
	}
}

// removeSpill drops a completed cell's spill file.
func (c *Coordinator) removeSpill(key string) {
	if c.cfg.SpillDir != "" {
		os.Remove(c.spillPath(key))
	}
}

// Serve accepts worker connections on ln and distributes the sweep until
// every cell is complete (nil), a cell exhausts its attempts (error), or
// ctx is cancelled. Cancellation drains gracefully: no new leases are
// granted, in-flight cells are allowed to finish (their leases can still
// expire if the worker dies), and Serve returns ctx.Err() once no lease is
// outstanding. Serve closes ln on return.
func (c *Coordinator) Serve(ctx context.Context, ln net.Listener) error {
	defer ln.Close()

	// TTL scanner: expired leases are revoked so dead workers' cells are
	// reassigned. Runs during draining too, so a dead worker cannot wedge
	// the drain.
	scanDone := make(chan struct{})
	stopScan := make(chan struct{})
	go func() {
		defer close(scanDone)
		period := c.ttl / 4
		if period < 10*time.Millisecond {
			period = 10 * time.Millisecond
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-stopScan:
				return
			case <-tick.C:
				c.expireLeases(time.Now())
			}
		}
	}()
	defer func() { close(stopScan); <-scanDone }()

	// Accept loop. Open connections are tracked so shutdown can first drain
	// them gracefully — handlers keep answering, so workers mid-exchange or
	// sleeping between acquires receive msgDone and exit on their own —
	// and then force-close stragglers (a hung worker must not wedge the
	// coordinator's exit).
	var (
		conns   sync.WaitGroup
		connMu  sync.Mutex
		openSet = map[net.Conn]bool{}
	)
	shutdown := func() {
		deadline := time.Now().Add(drainGrace)
		for time.Now().Before(deadline) {
			connMu.Lock()
			n := len(openSet)
			connMu.Unlock()
			if n == 0 {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		ln.Close()
		connMu.Lock()
		for conn := range openSet {
			conn.Close()
		}
		connMu.Unlock()
		conns.Wait()
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			connMu.Lock()
			openSet[conn] = true
			connMu.Unlock()
			conns.Add(1)
			go func() {
				defer conns.Done()
				defer func() {
					connMu.Lock()
					delete(openSet, conn)
					connMu.Unlock()
					conn.Close()
				}()
				c.handleConn(conn)
			}()
		}
	}()

	select {
	case <-c.resolved:
		shutdown()
		return c.finalErr()
	case <-ctx.Done():
		c.mu.Lock()
		c.draining = true
		c.mu.Unlock()
		c.cfg.Journal.Emit(flog.Record{Event: flog.EvDrain})
		c.logf("dsweep: draining: no new leases, waiting for in-flight cells")
		// Poll until the outstanding leases clear (completion, failure, or
		// expiry) or everything resolves.
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-c.resolved:
			case <-tick.C:
			}
			c.mu.Lock()
			idle := len(c.byLease) == 0
			c.mu.Unlock()
			if idle {
				shutdown()
				return ctx.Err()
			}
		}
	}
}

// finalErr reports permanently failed cells, if any.
func (c *Coordinator) finalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var firstErr error
	failed := 0
	for _, st := range c.order {
		if st.phase == cellFailed {
			failed++
			if firstErr == nil {
				firstErr = st.lastErr
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("dsweep: %d cell(s) failed permanently; first: %w", failed, firstErr)
	}
	return nil
}

// expireLeases revokes every lease whose deadline has passed.
func (c *Coordinator) expireLeases(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, st := range c.byLease {
		if now.After(st.deadline) {
			c.revokeLocked(id, fmt.Errorf("dsweep: lease on %s expired (worker %s missed heartbeats)", st.label, st.worker), revokeExpired)
		}
	}
}

// revokeKind classifies why a lease is being torn down; it decides the
// stats bucket and the journal event.
type revokeKind int

const (
	revokeExpired    revokeKind = iota // TTL passed without a heartbeat: worker presumed dead
	revokeConnDrop                     // connection dropped mid-lease
	revokeWorkerFail                   // worker reported the attempt failed
)

// revokeLocked tears down one lease: the cell returns to the pending pool
// (resuming from its last checkpoint on the next grant) or, once its
// attempts are spent, fails permanently. Expiry and connection drops are
// crash-driven takeovers; worker-reported failures count separately.
func (c *Coordinator) revokeLocked(id uint64, cause error, kind revokeKind) {
	st, ok := c.byLease[id]
	if !ok {
		return
	}
	delete(c.byLease, id)
	st.leaseID = 0
	st.lastBeat = time.Time{}
	c.cfg.Telemetry.RunFinished(st.label, st.began, cause)
	if ws, ok := c.workers[st.worker]; ok && ws.cells > 0 {
		ws.cells--
	}
	ev := flog.Record{Level: flog.LevelWarn, Cell: st.label, Key: st.key,
		Worker: st.worker, Lease: id, Attempt: st.attempts + 1, Err: cause.Error()}
	switch kind {
	case revokeExpired:
		c.stats.Takeovers++
		c.stats.Expiries++
		ev.Event = flog.EvExpired
	case revokeConnDrop:
		c.stats.Takeovers++
		ev.Event = flog.EvRevoked
	case revokeWorkerFail:
		c.stats.Failures++
		ev.Event = flog.EvCellFail
	}
	c.cfg.Journal.Emit(ev)
	st.attempts++
	if st.attempts >= c.cfg.MaxAttempts {
		st.phase = cellFailed
		st.lastErr = cause
		c.stats.Failed++
		c.cfg.Journal.Emit(flog.Record{Event: flog.EvGiveUp, Level: flog.LevelError,
			Cell: st.label, Key: st.key, Attempt: st.attempts, Err: cause.Error()})
		c.logf("dsweep: giving up on %s after %d attempts: %v", st.label, st.attempts, cause)
		c.checkResolvedLocked()
		return
	}
	st.phase = cellPending
	c.logf("dsweep: released %s (attempt %d/%d): %v", st.label, st.attempts, c.cfg.MaxAttempts, cause)
}

// checkResolvedLocked closes the resolved channel once no cell can make
// further progress.
func (c *Coordinator) checkResolvedLocked() {
	if c.isDone {
		return
	}
	for _, st := range c.order {
		if st.phase == cellPending || st.phase == cellLeased {
			return
		}
	}
	c.isDone = true
	c.cfg.Journal.Emit(flog.Record{Event: flog.EvSweepDone, Records: uint64(c.stats.Completed)})
	close(c.resolved)
}

// acquire grants the next pending cell to a worker, or tells it to wait
// (cells in flight elsewhere) or exit (sweep resolved or draining).
func (c *Coordinator) acquire(worker string) envelope {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining || c.isDone {
		return envelope{Type: msgDone}
	}
	for _, st := range c.order {
		if st.phase != cellPending {
			continue
		}
		c.nextLease++
		id := c.nextLease
		st.phase = cellLeased
		st.leaseID = id
		st.worker = worker
		st.deadline = time.Now().Add(c.ttl)
		st.began = c.cfg.Telemetry.RunStarted(st.label)
		c.byLease[id] = st
		c.touchWorker(worker).cells++
		c.cfg.Journal.Emit(flog.Record{Event: flog.EvLeased, Cell: st.label, Key: st.key,
			Worker: worker, Lease: id, Attempt: st.attempts + 1, Records: st.records})
		spec := st.spec
		env := envelope{
			Type:            msgLease,
			LeaseID:         id,
			Cell:            &spec,
			Key:             st.key,
			CheckpointEvery: c.checkpointEvery(st),
		}
		if st.checkpoint != nil {
			env.Resume = st.checkpoint
		}
		c.logf("dsweep: leased %s to %s (lease %d, resume at %d)", st.label, worker, id, st.records)
		return env
	}
	// Nothing pending: either all remaining cells are leased elsewhere
	// (wait — one may come back) or everything is resolved.
	for _, st := range c.order {
		if st.phase == cellLeased {
			retry := c.ttl.Milliseconds() / 4
			if retry < 50 {
				retry = 50
			}
			return envelope{Type: msgWait, RetryMS: retry}
		}
	}
	return envelope{Type: msgDone}
}

// heartbeat renews a lease and absorbs the worker's progress: the record
// delta feeds telemetry, the checkpoint becomes the cell's takeover
// resume point (spilled durably when a spill dir is configured), and the
// exchange feeds the interval/RTT/size histograms plus the journal.
// rttMicros is the worker-measured round trip of its previous heartbeat
// (0 = first one, nothing measured).
func (c *Coordinator) heartbeat(id uint64, records uint64, checkpoint []byte, rttMicros int64) envelope {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.byLease[id]
	if !ok {
		return envelope{Type: msgRevoked}
	}
	st.deadline = now.Add(c.ttl)
	since := st.began
	if !st.lastBeat.IsZero() {
		since = st.lastBeat
	}
	c.hbInterval.Observe(now.Sub(since).Milliseconds())
	st.lastBeat = now
	if rttMicros > 0 {
		c.hbRTT.Observe(rttMicros)
	}
	if len(checkpoint) > 0 {
		c.ckptBytes.Observe(int64(len(checkpoint)))
	}
	ws := c.touchWorker(st.worker)
	ws.lastBeat = now
	if records > st.records {
		c.cfg.Telemetry.AddRecords(records - st.records)
		ws.records += records - st.records
		st.records = records
	}
	if len(checkpoint) > 0 {
		st.checkpoint = checkpoint
		c.writeSpill(st)
	}
	c.cfg.Journal.Emit(flog.Record{Event: flog.EvHeartbeat, Level: flog.LevelDebug,
		Cell: st.label, Key: st.key, Worker: st.worker, Lease: id,
		Records: st.records, Bytes: len(checkpoint), RTTMicros: rttMicros})
	return envelope{Type: msgOK}
}

// complete records a finished cell in the manifest ledger (fsync'd before
// the acknowledgment) and retires its lease. A completion bearing a stale
// lease — the takeover race where a presumed-dead worker finished after
// all — is answered with msgRevoked and its result dropped; the ledger
// keeps exactly one line per cell either way, and results are
// deterministic, so nothing is lost.
func (c *Coordinator) complete(id uint64, records uint64, result []byte) envelope {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.byLease[id]
	if !ok {
		return envelope{Type: msgRevoked}
	}
	stored, err := c.cfg.Manifest.StoreRaw(st.spec.Workload, st.spec.Seed, st.cfg, result)
	if err != nil {
		// The ledger write failed (disk trouble): the cell stays leased so
		// the worker can retry via lease expiry, and the error surfaces.
		c.logf("dsweep: recording %s: %v", st.label, err)
		return envelope{Type: msgError, Error: fmt.Sprintf("recording cell: %v", err)}
	}
	delete(c.byLease, id)
	st.phase = cellDone
	st.leaseID = 0
	st.checkpoint = nil
	c.cfg.Telemetry.RunFinished(st.label, st.began, nil)
	c.stats.Completed++
	ws := c.touchWorker(st.worker)
	if ws.cells > 0 {
		ws.cells--
	}
	if records > st.records {
		c.cfg.Telemetry.AddRecords(records - st.records)
		ws.records += records - st.records
		st.records = records
	}
	if !stored {
		c.stats.Duplicates++
		c.cfg.Journal.Emit(flog.Record{Event: flog.EvDuplicate, Level: flog.LevelWarn,
			Cell: st.label, Key: st.key, Worker: st.worker, Lease: id, Records: st.records})
	} else {
		c.cfg.Journal.Emit(flog.Record{Event: flog.EvCompleted,
			Cell: st.label, Key: st.key, Worker: st.worker, Lease: id, Records: st.records})
	}
	c.removeSpill(st.key)
	c.logf("dsweep: %s complete (worker %s)", st.label, st.worker)
	c.checkResolvedLocked()
	return envelope{Type: msgOK}
}

// fail processes a worker-reported cell failure. badResume clears the
// cell's checkpoint so the retry starts fresh instead of looping on an
// unresumable snapshot.
func (c *Coordinator) fail(id uint64, cause string, badResume bool) envelope {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.byLease[id]
	if !ok {
		return envelope{Type: msgRevoked}
	}
	if badResume {
		st.checkpoint = nil
		st.records = 0
		c.removeSpill(st.key)
		c.stats.BadResumes++
		c.cfg.Journal.Emit(flog.Record{Event: flog.EvBadResume, Level: flog.LevelWarn,
			Cell: st.label, Key: st.key, Worker: st.worker, Lease: id, Err: cause})
	}
	c.revokeLocked(id, fmt.Errorf("dsweep: worker %s: %s", st.worker, cause), revokeWorkerFail)
	return envelope{Type: msgOK}
}

// handleConn drives one worker connection: versioned handshake, then a
// strict request/response loop. Any read/write error — including the
// worker being SIGKILLed — revokes the lease the connection holds, making
// its cell immediately reassignable.
func (c *Coordinator) handleConn(conn net.Conn) {
	var hello envelope
	if err := readFrame(conn, &hello); err != nil {
		return
	}
	if hello.Type != msgHello || hello.Version != ProtocolVersion {
		_ = writeFrame(conn, &envelope{
			Type:  msgError,
			Error: fmt.Sprintf("protocol version mismatch: coordinator speaks %d", ProtocolVersion),
		})
		return
	}
	worker := hello.Worker
	if worker == "" {
		worker = conn.RemoteAddr().String()
	}
	if err := writeFrame(conn, &envelope{Type: msgHello, Version: ProtocolVersion}); err != nil {
		return
	}

	// The lease this connection currently holds (one at a time: the worker
	// is strictly sequential). Revoked on any connection error.
	var held uint64
	defer func() {
		if held != 0 {
			c.mu.Lock()
			c.revokeLocked(held, fmt.Errorf("dsweep: connection to worker %s dropped", worker), revokeConnDrop)
			c.mu.Unlock()
		}
	}()

	for {
		var req envelope
		if err := readFrame(conn, &req); err != nil {
			return
		}
		var resp envelope
		switch req.Type {
		case msgAcquire:
			resp = c.acquire(worker)
			if resp.Type == msgLease {
				held = resp.LeaseID
			}
		case msgHeartbeat:
			resp = c.heartbeat(req.LeaseID, req.Records, req.Checkpoint, req.RTTMicros)
			if resp.Type == msgRevoked && req.LeaseID == held {
				held = 0
			}
		case msgComplete:
			resp = c.complete(req.LeaseID, req.Records, req.Result)
			if resp.Type == msgRevoked {
				// A takeover race's late completion: the lease was superseded
				// and the (byte-identical, deterministic) result dropped.
				c.cfg.Journal.Emit(flog.Record{Event: flog.EvDuplicate, Level: flog.LevelWarn,
					Worker: worker, Lease: req.LeaseID, Records: req.Records})
			}
			if req.LeaseID == held && resp.Type != msgError {
				held = 0
			}
		case msgFailed:
			resp = c.fail(req.LeaseID, req.Error, req.BadResume)
			if req.LeaseID == held {
				held = 0
			}
		default:
			resp = envelope{Type: msgError, Error: fmt.Sprintf("unexpected %q frame", req.Type)}
		}
		if err := writeFrame(conn, &resp); err != nil {
			return
		}
		if resp.Type == msgError {
			return
		}
	}
}
