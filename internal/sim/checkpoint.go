// Checkpoint/restore: a run can periodically serialize its complete
// simulation state — controller, devices, schedulers, migration engine,
// fault injector, and trace-source position — into a versioned, checksummed
// snapshot (internal/snap), and a later run can resume from any such
// snapshot and produce a Result byte-identical to the uninterrupted run.
package sim

import (
	"errors"
	"fmt"
	"hash/fnv"

	"heteromem/internal/core"
	"heteromem/internal/memctrl"
	"heteromem/internal/scheme"
	"heteromem/internal/snap"
	"heteromem/internal/trace"
)

// ErrConfigMismatch reports a checkpoint taken under a different simulation
// configuration than the one resuming from it.
var ErrConfigMismatch = errors.New("sim: checkpoint was taken under a different configuration")

// ErrSourceNotCheckpointable reports a trace source that can neither
// serialize its state (snap.Snapshotter) nor seek (trace.Positioner).
var ErrSourceNotCheckpointable = errors.New("sim: trace source supports neither snapshot nor positioning")

// Source kinds recorded in a checkpoint's meta section.
const (
	sourceSnapshot = 0 // full source state serialized (snap.Snapshotter)
	sourcePosition = 1 // record index only (trace.Positioner)
)

// ConfigDigest hashes the semantically relevant configuration — everything
// that shapes the simulated state stream — so a checkpoint can only be
// resumed under the configuration that produced it. Run-control fields
// (MaxRecords, checkpoint settings) and the observability switches (which
// must be off while checkpointing) are excluded.
func ConfigDigest(cfg Config) uint64 {
	h := fnv.New64a()
	var mig core.Options
	if cfg.Migration != nil {
		mig = *cfg.Migration
	}
	fmt.Fprintf(h, "%#v|%#v|%#v|%#v|%v|%#v|%v|%#v|%v|%d|%#v",
		cfg.Geometry, cfg.Latencies, cfg.OffTiming, cfg.OnTiming,
		cfg.Migration != nil, mig, cfg.OSAssisted, cfg.Sched, cfg.MeterPower,
		cfg.Warmup, cfg.Fault)
	// Channel sharding shapes the state stream; the digest uses the
	// effective (defaulted) values so equivalent spellings — Channels 0 vs
	// 1, explicit vs defaulted interleave/hop — resume interchangeably.
	ch, il, hop := effectiveSharding(cfg)
	fmt.Fprintf(h, "|%d|%d|%d", ch, il, hop)
	// The scheme is appended only when non-default so every pre-scheme
	// digest (and the checkpoints and sweep manifests keyed on it) is
	// unchanged for default-scheme runs.
	if cfg.Scheme != (scheme.Spec{}) {
		fmt.Fprintf(h, "|scheme=%s", cfg.Scheme)
	}
	return h.Sum64()
}

// effectiveSharding normalizes the sharding knobs: a single channel has no
// interleave or hop, and a sharded run fills in the defaults the hub would.
func effectiveSharding(cfg Config) (channels int, interleave uint64, hop int64) {
	channels = cfg.Channels
	if channels < 1 {
		channels = 1
	}
	if channels == 1 {
		return 1, 0, 0
	}
	interleave = cfg.InterleaveBytes
	if interleave == 0 {
		interleave = cfg.Geometry.MacroPageSize
	}
	hop = cfg.HopLatency
	if hop == 0 {
		hop = memctrl.DefaultHopLatency
	}
	return channels, interleave, hop
}

// checkpointIncompatible reports which observability feature blocks
// checkpointing, if any. Observability registries and rings are
// deliberately not serialized (they are diagnostic, unbounded, and not part
// of the equivalence contract), so a checkpointed run must not collect them.
func checkpointIncompatible(cfg Config) error {
	switch {
	case cfg.Metrics:
		return fmt.Errorf("sim: checkpointing is incompatible with Metrics collection")
	case cfg.EventTrace > 0:
		return fmt.Errorf("sim: checkpointing is incompatible with EventTrace collection")
	case cfg.SpanTrace > 0:
		return fmt.Errorf("sim: checkpointing is incompatible with SpanTrace collection")
	case cfg.EpochSeries > 0:
		return fmt.Errorf("sim: checkpointing is incompatible with EpochSeries collection")
	}
	return nil
}

// takeCheckpoint serializes the run state after n completed records, with
// one controller section per channel in channel order (see ctrlSection),
// so InspectCheckpoint shows the per-channel layout.
func takeCheckpoint(cfg Config, src trace.Source, hub *memctrl.Hub, n uint64) ([]byte, error) {
	e := snap.NewEncoder()
	e.Section("meta")
	e.U64(ConfigDigest(cfg))
	e.U64(n)
	switch s := src.(type) {
	case snap.Snapshotter:
		e.U8(sourceSnapshot)
		e.U64(0)
		e.Section("source")
		s.SnapshotTo(e)
	case trace.Positioner:
		e.U8(sourcePosition)
		e.U64(s.Position())
	default:
		return nil, fmt.Errorf("%w (%T)", ErrSourceNotCheckpointable, src)
	}
	for i := 0; i < hub.Channels(); i++ {
		e.Section(ctrlSection(hub, i))
		hub.Shard(i).SnapshotTo(e)
	}
	return e.Finish()
}

// ctrlSection names channel i's checkpoint section: "ctrl" for a single
// channel, so its checkpoints keep the layout they had before sharding and
// still resume, and "ctrl<i>" for each channel of a sharded hub.
func ctrlSection(hub *memctrl.Hub, i int) string {
	if hub.Channels() == 1 {
		return "ctrl"
	}
	return fmt.Sprintf("ctrl%d", i)
}

// restoreCheckpoint rebuilds the run state from a checkpoint, returning the
// number of records the checkpointed run had completed. The source and hub
// must have been freshly constructed from the same configuration the
// checkpoint was taken under; the config digest guarantees the channel
// layout (and hence section list) matches.
func restoreCheckpoint(cfg Config, src trace.Source, hub *memctrl.Hub, data []byte) (uint64, error) {
	d, err := snap.NewDecoder(data)
	if err != nil {
		return 0, err
	}
	if err := d.Section("meta"); err != nil {
		return 0, err
	}
	digest := d.U64()
	n := d.U64()
	kind := d.U8()
	pos := d.U64()
	if err := d.Err(); err != nil {
		return 0, err
	}
	if digest != ConfigDigest(cfg) {
		return 0, fmt.Errorf("%w: digest %016x, this run is %016x", ErrConfigMismatch, digest, ConfigDigest(cfg))
	}
	switch kind {
	case sourceSnapshot:
		s, ok := src.(snap.Snapshotter)
		if !ok {
			return 0, fmt.Errorf("sim: checkpoint holds source state but %T cannot restore it", src)
		}
		if err := d.Section("source"); err != nil {
			return 0, err
		}
		if err := s.RestoreFrom(d); err != nil {
			return 0, err
		}
	case sourcePosition:
		s, ok := src.(trace.Positioner)
		if !ok {
			return 0, fmt.Errorf("sim: checkpoint holds a source position but %T cannot seek", src)
		}
		if err := s.SkipTo(pos); err != nil {
			return 0, err
		}
	default:
		d.Invalid("unknown source kind %d", kind)
		return 0, d.Err()
	}
	for i := 0; i < hub.Channels(); i++ {
		if err := d.Section(ctrlSection(hub, i)); err != nil {
			return 0, err
		}
		if err := hub.Shard(i).RestoreFrom(d); err != nil {
			return 0, err
		}
	}
	return n, d.Err()
}

// CheckpointInfo summarizes a checkpoint without restoring it.
type CheckpointInfo struct {
	Records        uint64   // program accesses completed when it was taken
	ConfigDigest   uint64   // digest of the configuration that produced it
	SourceKind     string   // "snapshot" (full state) or "position" (seek)
	SourcePosition uint64   // record index, for the "position" kind
	Sections       []string // container sections, in file order
	Bytes          int      // total container size
}

// InspectCheckpoint validates a checkpoint's container (checksums, version)
// and returns its metadata. It does not need — or check against — any
// simulation configuration.
func InspectCheckpoint(data []byte) (CheckpointInfo, error) {
	d, err := snap.NewDecoder(data)
	if err != nil {
		return CheckpointInfo{}, err
	}
	info := CheckpointInfo{Sections: d.Sections(), Bytes: len(data)}
	if err := d.Section("meta"); err != nil {
		return CheckpointInfo{}, err
	}
	info.ConfigDigest = d.U64()
	info.Records = d.U64()
	kind := d.U8()
	info.SourcePosition = d.U64()
	if err := d.Err(); err != nil {
		return CheckpointInfo{}, err
	}
	switch kind {
	case sourceSnapshot:
		info.SourceKind = "snapshot"
		info.SourcePosition = 0
	case sourcePosition:
		info.SourceKind = "position"
	default:
		d.Invalid("unknown source kind %d", kind)
		return CheckpointInfo{}, d.Err()
	}
	return info, nil
}
