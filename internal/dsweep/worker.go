package dsweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"time"

	"heteromem/internal/backoff"
	"heteromem/internal/flog"
	"heteromem/internal/sim"
	"heteromem/internal/snap"
	"heteromem/internal/trace"
	"heteromem/internal/workload"
)

// Worker defaults.
const (
	// DefaultDialAttempts bounds consecutive failed dials before the worker
	// gives up — covering both a coordinator that never started and one
	// that finished the sweep and exited while this worker was mid-cell.
	DefaultDialAttempts = 10

	dialBackoffBase = 50 * time.Millisecond
	dialBackoffCap  = 2 * time.Second
	waitBackoffBase = 50 * time.Millisecond
	waitBackoffCap  = time.Second
)

// WorkerConfig configures a sweep worker.
type WorkerConfig struct {
	// Name identifies the worker in coordinator logs and telemetry
	// ("" = the connection's remote address).
	Name string

	// Seed seeds the worker's retry jitter (0 = derived from Name), so a
	// herd of workers retrying the same coordinator decorrelates
	// deterministically.
	Seed uint64

	// DialAttempts bounds consecutive failed dials (0 = DefaultDialAttempts).
	DialAttempts int

	// Logf, when non-nil, receives worker lifecycle logs.
	Logf func(format string, args ...any)

	// Journal, when non-nil, receives this worker's structured lifecycle
	// records: dials and retries, lease acquisitions, checkpoint ships
	// (with the measured heartbeat round trip), and exit. Nil-safe.
	Journal *flog.Journal
}

// errRevoked aborts a cell run from inside its checkpoint sink when the
// coordinator answers a heartbeat with msgRevoked.
var errRevoked = errors.New("dsweep: lease revoked")

// errConn wraps transport failures so the worker can tell "reconnect and
// carry on" apart from "the cell itself failed".
type errConn struct{ err error }

func (e errConn) Error() string { return e.err.Error() }
func (e errConn) Unwrap() error { return e.err }

// RunWorker connects to the coordinator at addr and executes leased cells
// until the coordinator reports the sweep done (nil), ctx is cancelled
// (ctx.Err()), or the coordinator stays unreachable past the dial budget.
// Transient connection failures — including the coordinator restarting —
// are retried with decorrelated-jitter backoff; a cell interrupted by a
// connection drop is simply abandoned (the coordinator re-leases it, and
// this or another worker resumes it from its last checkpoint).
func RunWorker(ctx context.Context, addr string, cfg WorkerConfig) error {
	seed := cfg.Seed
	if seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(cfg.Name))
		seed = h.Sum64() | 1
	}
	dialAttempts := cfg.DialAttempts
	if dialAttempts <= 0 {
		dialAttempts = DefaultDialAttempts
	}
	w := &worker{
		cfg:  cfg,
		wait: backoff.NewJitter(waitBackoffBase, waitBackoffCap, seed+1),
	}
	dial := backoff.NewJitter(dialBackoffBase, dialBackoffCap, seed)
	fails := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		cfg.Journal.Emit(flog.Record{Event: flog.EvDial, Attempt: fails})
		conn, err := w.connect(ctx, addr)
		if err != nil {
			fails++
			cfg.Journal.Emit(flog.Record{Event: flog.EvDialFail, Level: flog.LevelWarn, Attempt: fails, Err: err.Error()})
			if fails >= dialAttempts {
				return fmt.Errorf("dsweep: worker %s: coordinator unreachable after %d attempts: %w", cfg.Name, fails, err)
			}
			if err := dial.Sleep(ctx); err != nil {
				return err
			}
			continue
		}
		fails = 0
		dial.Reset()
		err = w.serve(ctx, conn)
		conn.Close()
		if err == nil {
			cfg.Journal.Emit(flog.Record{Event: flog.EvWorkDone})
			return nil // sweep done
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		var ce errConn
		if !errors.As(err, &ce) {
			return err // protocol-fatal, not worth retrying
		}
		w.logf("dsweep: worker %s: connection lost (%v), reconnecting", cfg.Name, err)
		if err := dial.Sleep(ctx); err != nil {
			return err
		}
	}
}

type worker struct {
	cfg  WorkerConfig
	wait *backoff.Jitter
}

func (w *worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// connect dials the coordinator and completes the versioned handshake.
func (w *worker) connect(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := writeFrame(conn, &envelope{Type: msgHello, Version: ProtocolVersion, Worker: w.cfg.Name}); err != nil {
		conn.Close()
		return nil, err
	}
	var resp envelope
	if err := readFrame(conn, &resp); err != nil {
		conn.Close()
		return nil, err
	}
	if resp.Type != msgHello || resp.Version != ProtocolVersion {
		conn.Close()
		if resp.Type == msgError {
			return nil, fmt.Errorf("dsweep: handshake rejected: %s", resp.Error)
		}
		return nil, fmt.Errorf("dsweep: unexpected handshake reply %q", resp.Type)
	}
	return conn, nil
}

// exchange performs one strict request/response round trip.
func (w *worker) exchange(conn net.Conn, req *envelope) (envelope, error) {
	if err := writeFrame(conn, req); err != nil {
		return envelope{}, errConn{err}
	}
	var resp envelope
	if err := readFrame(conn, &resp); err != nil {
		return envelope{}, errConn{err}
	}
	return resp, nil
}

// serve runs the acquire/run loop on one connection. Returns nil when the
// coordinator says the sweep is done, errConn on transport failure (the
// caller reconnects), or a plain error on fatal protocol trouble.
func (w *worker) serve(ctx context.Context, conn net.Conn) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := w.exchange(conn, &envelope{Type: msgAcquire})
		if err != nil {
			return err
		}
		switch resp.Type {
		case msgDone:
			w.logf("dsweep: worker %s: sweep done", w.cfg.Name)
			return nil
		case msgWait:
			if err := w.wait.Sleep(ctx); err != nil {
				return err
			}
		case msgLease:
			w.wait.Reset()
			if resp.Cell == nil {
				return fmt.Errorf("dsweep: lease %d carries no cell", resp.LeaseID)
			}
			if err := w.runCell(ctx, conn, &resp); err != nil {
				return err
			}
		case msgError:
			return fmt.Errorf("dsweep: coordinator: %s", resp.Error)
		default:
			return fmt.Errorf("dsweep: unexpected %q reply to acquire", resp.Type)
		}
	}
}

// runCell simulates one leased cell, streaming each checkpoint back as a
// lease-renewing heartbeat, and reports the outcome. A nil return means the
// connection is still usable (the cell completed, failed cleanly, or was
// revoked); errConn means the transport died mid-cell and the run was
// abandoned for the coordinator to reassign.
func (w *worker) runCell(ctx context.Context, conn net.Conn, lease *envelope) error {
	spec := *lease.Cell
	w.logf("dsweep: worker %s: running %s (lease %d)", w.cfg.Name, spec.Label(), lease.LeaseID)
	w.cfg.Journal.Emit(flog.Record{Event: flog.EvAcquire, Cell: spec.Label(), Lease: lease.LeaseID})
	cfg, err := spec.Config()
	if err != nil {
		return w.reportFailure(conn, lease.LeaseID, err, false)
	}
	gen, err := workload.NewMemory(spec.Workload, spec.Seed)
	if err != nil {
		return w.reportFailure(conn, lease.LeaseID, err, false)
	}
	src := trace.NewLimit(gen, cfg.MaxRecords)
	cfg.CheckpointEvery = lease.CheckpointEvery
	cfg.Resume = lease.Resume

	var connErr error
	revoked := false
	// Each heartbeat exchange is timed and the measured round trip rides
	// the NEXT heartbeat's frame (it cannot ride its own: the frame is
	// written before the reply arrives). The coordinator folds it into the
	// fleet RTT histogram without any cross-host clock agreement.
	var lastRTT int64
	cfg.CheckpointSink = func(data []byte, records uint64) error {
		sent := time.Now()
		resp, err := w.exchange(conn, &envelope{
			Type:       msgHeartbeat,
			LeaseID:    lease.LeaseID,
			Records:    records,
			Checkpoint: data,
			RTTMicros:  lastRTT,
		})
		if err != nil {
			connErr = err
			return err
		}
		lastRTT = time.Since(sent).Microseconds()
		w.cfg.Journal.Emit(flog.Record{Event: flog.EvShip, Level: flog.LevelDebug,
			Cell: spec.Label(), Lease: lease.LeaseID, Records: records,
			Bytes: len(data), RTTMicros: lastRTT})
		switch resp.Type {
		case msgOK:
			return nil
		case msgRevoked:
			revoked = true
			return errRevoked
		default:
			connErr = fmt.Errorf("dsweep: unexpected %q reply to heartbeat", resp.Type)
			return connErr
		}
	}

	res, runErr := sim.RunContext(ctx, src, cfg)
	switch {
	case connErr != nil:
		var ce errConn
		if errors.As(connErr, &ce) {
			return connErr
		}
		return errConn{connErr}
	case revoked:
		w.logf("dsweep: worker %s: lease %d revoked, abandoning %s", w.cfg.Name, lease.LeaseID, spec.Label())
		return nil
	case runErr != nil:
		if err := ctx.Err(); err != nil {
			// Cancelled mid-cell: report the abort if the conn still works,
			// so the coordinator re-leases immediately instead of waiting
			// for expiry, then surface the cancellation.
			_ = w.reportFailure(conn, lease.LeaseID, runErr, false)
			return err
		}
		// A corrupt, version-skewed or mismatched resume point fails every
		// retry the same way: report it as BadResume so the coordinator
		// clears it and the next attempt starts fresh.
		var skew *snap.VersionError
		badResume := errors.Is(runErr, sim.ErrConfigMismatch) || errors.Is(runErr, snap.ErrCorrupt) || errors.As(runErr, &skew)
		return w.reportFailure(conn, lease.LeaseID, runErr, badResume)
	}

	raw, err := json.Marshal(res)
	if err != nil {
		return w.reportFailure(conn, lease.LeaseID, err, false)
	}
	resp, err := w.exchange(conn, &envelope{Type: msgComplete, LeaseID: lease.LeaseID, Records: res.Records, Result: raw})
	if err != nil {
		return err
	}
	switch resp.Type {
	case msgOK:
		return nil
	case msgRevoked:
		// Takeover race: someone else owns (or finished) the cell now; the
		// deterministic result we computed is identical anyway.
		w.logf("dsweep: worker %s: completion of %s superseded by takeover", w.cfg.Name, spec.Label())
		return nil
	case msgError:
		return fmt.Errorf("dsweep: coordinator: %s", resp.Error)
	default:
		return fmt.Errorf("dsweep: unexpected %q reply to complete", resp.Type)
	}
}

// reportFailure tells the coordinator the cell attempt failed.
func (w *worker) reportFailure(conn net.Conn, leaseID uint64, cause error, badResume bool) error {
	w.logf("dsweep: worker %s: lease %d failed: %v", w.cfg.Name, leaseID, cause)
	w.cfg.Journal.Emit(flog.Record{Event: flog.EvWorkFail, Level: flog.LevelWarn,
		Lease: leaseID, Err: cause.Error()})
	resp, err := w.exchange(conn, &envelope{
		Type:      msgFailed,
		LeaseID:   leaseID,
		Error:     cause.Error(),
		BadResume: badResume,
	})
	if err != nil {
		return err
	}
	switch resp.Type {
	case msgOK, msgRevoked:
		return nil
	default:
		return fmt.Errorf("dsweep: unexpected %q reply to failure report", resp.Type)
	}
}
