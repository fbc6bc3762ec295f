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
	// effective values the hub is built with, so equivalent spellings —
	// Channels 0 vs 1, explicit vs defaulted interleave/hop — resume
	// interchangeably.
	sh, _ := memctrl.Sharding(cfg.Geometry, cfg.hubConfig())
	fmt.Fprintf(h, "|%d|%d|%d", sh.Channels, sh.Interleave, sh.HopLatency)
	// The scheme is appended only when non-default so every pre-scheme
	// digest (and the checkpoints and sweep manifests keyed on it) is
	// unchanged for default-scheme runs.
	if cfg.Scheme != (scheme.Spec{}) {
		fmt.Fprintf(h, "|scheme=%s", cfg.Scheme)
	}
	return h.Sum64()
}

// meta is a checkpoint's meta section: the configuration digest, the
// records completed, and how the trace source rides along (its position,
// for the position kind).
type meta struct {
	digest, records uint64
	kind            uint8
	pos             uint64
}

// Snap implements snap.Snapshotter.
func (m *meta) Snap(s *snap.Stream) {
	s.U64(&m.digest)
	s.U64(&m.records)
	s.U8(&m.kind)
	s.U64(&m.pos)
}

// readMeta reads the meta section of a validated container.
func readMeta(d *snap.Decoder) (meta, error) {
	var m meta
	s, err := d.Section("meta")
	if err != nil {
		return m, err
	}
	m.Snap(s)
	return m, s.Err()
}

// takeCheckpoint serializes the run state after n completed records, with
// one controller section per channel in channel order (see ctrlSection),
// so InspectCheckpoint shows the per-channel layout.
func takeCheckpoint(cfg Config, src trace.Source, hub *memctrl.Hub, n uint64) ([]byte, error) {
	m := meta{digest: ConfigDigest(cfg), records: n, kind: sourceSnapshot}
	state, isSnap := src.(snap.Snapshotter)
	if !isSnap {
		p, ok := src.(trace.Positioner)
		if !ok {
			return nil, fmt.Errorf("%w (%T)", ErrSourceNotCheckpointable, src)
		}
		m.kind, m.pos = sourcePosition, p.Position()
	}
	e := snap.NewEncoder()
	m.Snap(e.Section("meta"))
	if isSnap {
		state.Snap(e.Section("source"))
	}
	for i := 0; i < hub.Channels(); i++ {
		hub.Shard(i).Snap(e.Section(ctrlSection(hub, i)))
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
	m, err := readMeta(d)
	if err != nil {
		return 0, err
	}
	if m.digest != ConfigDigest(cfg) {
		return 0, fmt.Errorf("%w: digest %016x, this run is %016x", ErrConfigMismatch, m.digest, ConfigDigest(cfg))
	}
	switch m.kind {
	case sourceSnapshot:
		state, ok := src.(snap.Snapshotter)
		if !ok {
			return 0, fmt.Errorf("sim: checkpoint holds source state but %T cannot restore it", src)
		}
		if err := restoreSection(d, "source", state); err != nil {
			return 0, err
		}
	case sourcePosition:
		p, ok := src.(trace.Positioner)
		if !ok {
			return 0, fmt.Errorf("sim: checkpoint holds a source position but %T cannot seek", src)
		}
		if err := p.SkipTo(m.pos); err != nil {
			return 0, err
		}
	default:
		return 0, unknownSourceKind(m.kind)
	}
	for i := 0; i < hub.Channels(); i++ {
		if err := restoreSection(d, ctrlSection(hub, i), hub.Shard(i)); err != nil {
			return 0, err
		}
	}
	return m.records, nil
}

// restoreSection restores one component from the named section.
func restoreSection(d *snap.Decoder, name string, part snap.Snapshotter) error {
	s, err := d.Section(name)
	if err != nil {
		return err
	}
	part.Snap(s)
	return s.Err()
}

func unknownSourceKind(kind uint8) error {
	return fmt.Errorf("%w: section \"meta\": unknown source kind %d", snap.ErrCorrupt, kind)
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
	m, err := readMeta(d)
	if err != nil {
		return CheckpointInfo{}, err
	}
	info := CheckpointInfo{Records: m.records, ConfigDigest: m.digest, Sections: d.Sections(), Bytes: len(data)}
	switch m.kind {
	case sourceSnapshot:
		info.SourceKind = "snapshot"
	case sourcePosition:
		info.SourceKind, info.SourcePosition = "position", m.pos
	default:
		return CheckpointInfo{}, unknownSourceKind(m.kind)
	}
	return info, nil
}
