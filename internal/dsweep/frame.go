package dsweep

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// The wire format: length-prefixed JSON frames. Every message is one
// envelope serialized as JSON, preceded by its byte length as a big-endian
// uint32. The connection is strictly request/response — the worker writes
// one frame and reads exactly one reply — so neither side ever interleaves
// writes and a dropped connection is always detected at the next exchange.

// ProtocolVersion is the handshake version. A coordinator refuses workers
// speaking a different version, so a mixed-build fleet fails fast instead
// of corrupting the sweep.
//
// Version history:
//
//	1 — initial lease protocol.
//	2 — CellSpec.Scheme. The bump is load-bearing: a v1 worker would drop
//	    the unknown JSON field, simulate the default scheme, and report the
//	    wrong result under the new cell's key — silent corruption, not an
//	    error.
const ProtocolVersion = 2

// maxFrame bounds a single frame. Checkpoints dominate frame size: a cache
// scheme snapshots one packed tag word per on-package block, which reaches
// ~50 MiB raw — ~70 MiB after the envelope's base64 expansion — so the
// bound sits well above that while still rejecting a corrupt length prefix
// immediately.
const maxFrame = 256 << 20

// Message types. The envelope is a single struct with a type tag rather
// than per-type payloads: the field set is small, and one shape keeps the
// strict request/response loop free of type-dispatch framing errors.
const (
	msgHello     = "hello"     // worker → coordinator: version handshake
	msgAcquire   = "acquire"   // worker → coordinator: request a cell lease
	msgLease     = "lease"     // coordinator → worker: a leased cell (+ resume checkpoint)
	msgWait      = "wait"      // coordinator → worker: nothing leasable now, retry later
	msgDone      = "done"      // coordinator → worker: sweep complete (or draining), exit
	msgHeartbeat = "heartbeat" // worker → coordinator: lease renewal + progress + checkpoint
	msgComplete  = "complete"  // worker → coordinator: finished cell result
	msgFailed    = "failed"    // worker → coordinator: cell attempt failed
	msgOK        = "ok"        // coordinator → worker: acknowledged
	msgRevoked   = "revoked"   // coordinator → worker: lease no longer held, abandon the cell
	msgError     = "error"     // either direction: fatal protocol error, close the connection
)

// envelope is the one wire message shape. Fields are populated per Type;
// json omitempty keeps frames compact.
type envelope struct {
	Type    string `json:"type"`
	Version int    `json:"version,omitempty"` // hello
	Worker  string `json:"worker,omitempty"`  // hello: worker name for logs/telemetry
	Error   string `json:"error,omitempty"`   // error, failed

	LeaseID uint64    `json:"lease_id,omitempty"` // lease, heartbeat, complete, failed
	Cell    *CellSpec `json:"cell,omitempty"`     // lease
	Key     string    `json:"key,omitempty"`      // lease: the manifest cell key

	// CheckpointEvery is the coordinator-chosen checkpoint cadence for the
	// leased cell; Resume is the last fsync'd checkpoint of a dead peer
	// (nil for a fresh start).
	CheckpointEvery uint64 `json:"checkpoint_every,omitempty"`
	Resume          []byte `json:"resume,omitempty"`

	Records    uint64 `json:"records,omitempty"`    // heartbeat, complete: records completed so far
	Checkpoint []byte `json:"checkpoint,omitempty"` // heartbeat: the checkpoint at Records

	// RTTMicros is the worker-measured round trip of its previous heartbeat
	// exchange on this lease, in microseconds (0 = first heartbeat, nothing
	// measured yet). The coordinator folds it into its RTT histogram and
	// journals it, giving the fleet timeline a network-health signal without
	// any clock synchronization between hosts.
	RTTMicros int64 `json:"rtt_us,omitempty"` // heartbeat

	Result json.RawMessage `json:"result,omitempty"` // complete: the cell's sim.Result JSON

	// BadResume marks a failure caused by the shipped resume checkpoint
	// (config-digest mismatch or corruption): the coordinator clears the
	// cell's checkpoint so the retry starts fresh instead of looping.
	BadResume bool `json:"bad_resume,omitempty"` // failed

	RetryMS int64 `json:"retry_ms,omitempty"` // wait: suggested base retry delay
}

// writeFrame serializes env as one length-prefixed frame.
func writeFrame(w io.Writer, env *envelope) error {
	body, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("dsweep: encoding %s frame: %w", env.Type, err)
	}
	if len(body) > maxFrame {
		return fmt.Errorf("dsweep: %s frame is %d bytes, exceeds the %d-byte limit", env.Type, len(body), maxFrame)
	}
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf, uint32(len(body)))
	copy(buf[4:], body)
	_, err = w.Write(buf)
	return err
}

// readFrame reads one frame into env. An EOF before the first length byte
// surfaces as io.EOF (clean close); anything torn mid-frame is an error.
func readFrame(r io.Reader, env *envelope) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("dsweep: reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return fmt.Errorf("dsweep: frame length %d out of range (1..%d)", n, maxFrame)
	}
	// The body grows as bytes arrive instead of trusting the claimed
	// length, so a torn or lying header costs what the peer sent, not the
	// up to maxFrame bytes it claims.
	var body bytes.Buffer
	body.Grow(int(min(n, 1<<20)))
	if _, err := io.CopyN(&body, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("dsweep: reading %d-byte frame body: %w", n, err)
	}
	*env = envelope{}
	if err := json.Unmarshal(body.Bytes(), env); err != nil {
		return fmt.Errorf("dsweep: decoding frame: %w", err)
	}
	if env.Type == "" {
		return fmt.Errorf("dsweep: frame missing type tag")
	}
	return nil
}
