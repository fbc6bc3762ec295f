// The multi-channel controller hub: the physical address space is striped
// across N per-channel controllers at a configurable interleave granularity,
// and the hub routes each access by the decoded channel bits of the
// internal/addr mapping. Every shard is a complete heterogeneity-aware
// controller — its own FR-FCFS schedulers, bank state, migration engine,
// pooled freelists, and observability instruments — owning an equal slice
// of both regions, so shards share no mutable state and can advance on
// separate goroutines. Cross-channel swap copy legs pay a fixed-latency
// interconnect hop (Config.CopyHop), which the hub charges on every shard's
// copy read legs.
//
// A single-channel hub is pure delegation: construction, access path,
// report, and snapshot bytes are identical to a bare Controller, which is
// what keeps the pre-hub goldens byte-for-byte valid.
package memctrl

import (
	"fmt"

	"heteromem/internal/addr"
	"heteromem/internal/fault"
	"heteromem/internal/obs"
	"heteromem/internal/power"
	"heteromem/internal/stats"
)

// DefaultHopLatency is the cross-channel interconnect hop, in cycles,
// charged on swap copy legs when a sharded hub is built without an explicit
// hop: a few cycles of on-chip switch traversal, in the spirit of the
// paper's Table II interconnect components.
const DefaultHopLatency = 8

// HubConfig shapes the multi-channel hub.
type HubConfig struct {
	// Channels is the number of controller shards (a positive power of
	// two; 0 and 1 both mean a single, non-sharded controller).
	Channels int

	// Interleave is the channel-striping granularity in bytes. 0 defaults
	// to the macro page size; any value must be a power-of-two multiple of
	// the macro page size so a macro page — the migration unit — lives
	// wholly inside one shard.
	Interleave uint64

	// HopLatency is the fixed cross-channel interconnect hop in cycles,
	// charged at the start of every swap copy read leg. 0 selects
	// DefaultHopLatency when Channels > 1; single-channel hubs never
	// charge a hop.
	HopLatency int64

	// ShardObs optionally gives each shard its own observability registry
	// (len == Channels). Shards must not share a registry: they advance
	// concurrently and the registry is not goroutine-safe.
	ShardObs []*obs.Registry

	// ShardPower optionally gives each shard its own power meter
	// (len == Channels); merge them for the machine-wide account.
	ShardPower []*power.Meter
}

// Hub routes program accesses to N per-channel controllers.
type Hub struct {
	ctrls  []*Controller
	iv     addr.Interleave
	hop    int64
	single *Controller // non-nil iff Channels == 1 (pure delegation)
}

// NewHub builds the hub. With hubCfg.Channels <= 1 the result wraps exactly
// one Controller built from cfg unchanged. With N > 1, cfg.Geometry is
// split N ways (capacities divide, device structure per shard unchanged)
// and cfg.Obs/cfg.Power must be unset — per-shard instruments come from
// HubConfig so shards never share mutable state. onResult, when non-nil,
// observes every completed access; under sharding its AccessResult carries
// the globalized physical address and the shard-local machine address.
func NewHub(cfg Config, hubCfg HubConfig, onResult func(AccessResult)) (*Hub, error) {
	n := hubCfg.Channels
	if n <= 0 {
		n = 1
	}
	if n == 1 {
		ctrl, err := New(cfg, onResult)
		if err != nil {
			return nil, err
		}
		iv, err := addr.NewInterleave(1, cfg.Geometry.MacroPageSize)
		if err != nil {
			return nil, err
		}
		return &Hub{ctrls: []*Controller{ctrl}, iv: iv, single: ctrl}, nil
	}
	gran := hubCfg.Interleave
	if gran == 0 {
		gran = cfg.Geometry.MacroPageSize
	}
	if gran%cfg.Geometry.MacroPageSize != 0 {
		return nil, fmt.Errorf("memctrl: interleave %d must be a multiple of the macro page size %d (a page must live in one shard)", gran, cfg.Geometry.MacroPageSize)
	}
	iv, err := addr.NewInterleave(n, gran)
	if err != nil {
		return nil, fmt.Errorf("memctrl: %w", err)
	}
	stripe := gran * uint64(n)
	// Both region boundaries must fall on whole stripes so that stripping
	// the channel bits maps the global on-package region [0, OnCap) exactly
	// onto every shard's local [0, OnCap/n) — the shard-local static split
	// then equals the global one.
	if cfg.Geometry.OnPackageCapacity%stripe != 0 || cfg.Geometry.TotalCapacity%stripe != 0 {
		return nil, fmt.Errorf("memctrl: capacities (%d on, %d total) must be multiples of the %d-byte channel stripe",
			cfg.Geometry.OnPackageCapacity, cfg.Geometry.TotalCapacity, stripe)
	}
	if cfg.Obs != nil || cfg.Power != nil {
		return nil, fmt.Errorf("memctrl: sharded hub requires per-shard instruments (HubConfig.ShardObs/ShardPower), not shared Config.Obs/Power")
	}
	if hubCfg.ShardObs != nil && len(hubCfg.ShardObs) != n {
		return nil, fmt.Errorf("memctrl: ShardObs has %d registries for %d channels", len(hubCfg.ShardObs), n)
	}
	if hubCfg.ShardPower != nil && len(hubCfg.ShardPower) != n {
		return nil, fmt.Errorf("memctrl: ShardPower has %d meters for %d channels", len(hubCfg.ShardPower), n)
	}
	shardGeom, err := cfg.Geometry.Shard(n)
	if err != nil {
		return nil, fmt.Errorf("memctrl: %w", err)
	}
	hop := hubCfg.HopLatency
	if hop == 0 {
		hop = DefaultHopLatency
	}
	h := &Hub{ctrls: make([]*Controller, n), iv: iv, hop: hop}
	for i := 0; i < n; i++ {
		scfg := cfg
		scfg.Geometry = shardGeom
		scfg.CopyHop = hop
		if hubCfg.ShardObs != nil {
			scfg.Obs = hubCfg.ShardObs[i]
		}
		if hubCfg.ShardPower != nil {
			scfg.Power = hubCfg.ShardPower[i]
		}
		var shardResult func(AccessResult)
		if onResult != nil {
			ch := i
			shardResult = func(r AccessResult) {
				r.Phys = h.iv.Global(ch, r.Phys)
				onResult(r)
			}
		}
		ctrl, err := New(scfg, shardResult)
		if err != nil {
			return nil, fmt.Errorf("memctrl: channel %d: %w", i, err)
		}
		h.ctrls[i] = ctrl
	}
	return h, nil
}

// Channels returns the shard count.
func (h *Hub) Channels() int { return len(h.ctrls) }

// Interleave returns the channel-routing mapping.
func (h *Hub) Interleave() addr.Interleave { return h.iv }

// Mapping returns the hub's routing decode as a full bit-field mapping.
func (h *Hub) Mapping() *addr.Mapping { return h.iv.Mapping() }

// HopLatency returns the effective cross-channel hop (0 for a single
// channel).
func (h *Hub) HopLatency() int64 { return h.hop }

// Shard exposes channel i's controller (the sim's run loop drives shards
// directly: a single channel inline, more through pre-routed records).
func (h *Hub) Shard(i int) *Controller { return h.ctrls[i] }

// Route decodes the channel and shard-local address of a physical address.
func (h *Hub) Route(phys uint64) (ch int, local uint64) {
	if h.single != nil {
		return 0, phys
	}
	return h.iv.ChannelOf(phys), h.iv.Local(phys)
}

// Access routes one program access to its channel's controller. The
// allocation-free shard access path is preserved: routing is three shifts
// and a slice index.
func (h *Hub) Access(phys uint64, write bool, now int64) error {
	if h.single != nil {
		return h.single.Access(phys, write, now)
	}
	return h.ctrls[h.iv.ChannelOf(phys)].Access(h.iv.Local(phys), write, now)
}

// Flush drains every shard and returns the latest final cycle.
func (h *Hub) Flush() int64 {
	if h.single != nil {
		return h.single.Flush()
	}
	var last int64
	for _, c := range h.ctrls {
		if f := c.Flush(); f > last {
			last = f
		}
	}
	return last
}

// Err returns the first latched shard failure, in channel order.
func (h *Hub) Err() error {
	for _, c := range h.ctrls {
		if err := c.Err(); err != nil {
			return err
		}
	}
	return nil
}

// ResetStats clears every shard's statistics (the warmup boundary).
func (h *Hub) ResetStats() {
	for _, c := range h.ctrls {
		c.ResetStats()
	}
}

// PublishObs exports every shard's snapshot-time gauges into its own
// registry.
func (h *Hub) PublishObs() {
	for _, c := range h.ctrls {
		c.PublishObs()
	}
}

// FaultReport merges the per-shard fault ledgers (nil when injection is
// off).
func (h *Hub) FaultReport() *fault.Report {
	if h.single != nil {
		return h.single.FaultReport()
	}
	var merged *fault.Report
	for _, c := range h.ctrls {
		rep := c.FaultReport()
		if rep == nil {
			continue
		}
		if merged == nil {
			merged = &fault.Report{}
		}
		merged.Merge(rep)
	}
	return merged
}

// Report folds the per-shard statistics into one machine-wide report.
// Every aggregate is computed from the shards' raw accumulators — Welford
// states merge exactly (Chan et al.), histogram buckets add before the
// percentile, queue-delay sums divide once at the end — and shards fold in
// fixed channel order, so the report is identical regardless of which
// shard's goroutine finished first.
func (h *Hub) Report() Report {
	if h.single != nil {
		return h.single.Report()
	}
	var r Report
	var hist stats.Histogram
	var coreLatSum int64
	var nDone uint64
	var onServed, offServed uint64
	var onQueue, offQueue int64
	for _, c := range h.ctrls {
		r.All.Merge(c.allLat)
		r.On.Merge(c.onLat)
		r.Off.Merge(c.offLat)
		r.DRAMAll.Merge(c.dramAll)
		r.DRAMOn.Merge(c.dramOn)
		r.DRAMOff.Merge(c.dramOff)
		hist.Merge(&c.hist)
		coreLatSum += c.coreLatSum
		nDone += c.nDone
		s, q := c.onSch.QueueTotals()
		onServed += s
		onQueue += q
		s, q = c.offSch.QueueTotals()
		offServed += s
		offQueue += q
		if c.mig != nil {
			r.Migration.Merge(c.mig.Stats())
		}
		if c.cache != nil {
			if r.Scheme == nil {
				r.Scheme = &SchemeReport{Name: c.policy.String()}
			}
			r.Scheme.Stats.Add(c.policy.Stats())
		}
	}
	if r.Scheme != nil {
		r.Scheme.HitRate = r.Scheme.Stats.HitRate()
	}
	r.P95 = hist.Percentile(95)
	if nDone > 0 {
		r.MeanCoreLat = float64(coreLatSum) / float64(nDone)
		r.OnShare = float64(r.On.Count()) / float64(nDone)
	}
	if onServed > 0 {
		r.OnQueueMean = float64(onQueue) / float64(onServed)
	}
	if offServed > 0 {
		r.OffQueueMean = float64(offQueue) / float64(offServed)
	}
	r.Faults = h.FaultReport()
	return r
}
