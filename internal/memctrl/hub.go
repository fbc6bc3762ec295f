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
// A single-channel hub is built through the same shard loop as N: its one
// shard takes the geometry whole and no hop. Every hub method folds over
// its shards the same way for one channel as for many: the fold of one
// shard into empty accumulators is an exact copy, so report and snapshot
// bytes are identical to a bare Controller's, which is what keeps the
// pre-hub goldens byte-for-byte valid.
package memctrl

import (
	"fmt"

	"heteromem/internal/addr"
	"heteromem/internal/config"
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

// HubConfig shapes the multi-channel hub. Sharding is the rule for
// Channels, Interleave and HopLatency, and fills in their defaults.
type HubConfig struct {
	// Channels is the number of controller shards (0 and 1 both mean a
	// single, non-sharded controller).
	Channels int

	// Interleave is the channel-striping granularity in bytes, a multiple
	// of the macro page size so a page — the migration unit — lives wholly
	// inside one shard.
	Interleave uint64

	// HopLatency is the fixed cross-channel interconnect hop in cycles,
	// charged at the start of every swap copy read leg.
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
	ctrls []*Controller
	iv    addr.Interleave
}

// Sharding is the rule for a channel layout over geometry g. It returns hc
// with the effective values: 0 or 1 channels is one channel with no
// interleave and no hop; a sharded layout defaults the interleave to the
// macro page size and the hop to DefaultHopLatency. The error names a
// layout no hub can build: a channel count that is not a power of two, an
// interleave that is not a power-of-two multiple of the page, or a stripe
// that does not divide both capacities. The values are defaulted even
// then, so a rejected config still digests deterministically.
func Sharding(g config.MemoryGeometry, hc HubConfig) (HubConfig, error) {
	n := hc.Channels
	if n <= 1 {
		hc.Channels, hc.Interleave, hc.HopLatency = 1, 0, 0
		if n < 0 {
			return hc, fmt.Errorf("memctrl: channel count %d must be a power of two (0 or 1 for one channel)", n)
		}
		return hc, nil
	}
	if hc.Interleave == 0 {
		hc.Interleave = g.MacroPageSize
	}
	if hc.HopLatency == 0 {
		hc.HopLatency = DefaultHopLatency
	}
	if n&(n-1) != 0 {
		return hc, fmt.Errorf("memctrl: channel count %d must be a power of two (0 or 1 for one channel)", n)
	}
	if g.MacroPageSize == 0 || hc.Interleave%g.MacroPageSize != 0 {
		return hc, fmt.Errorf("memctrl: interleave %d must be a multiple of the macro page size %d (a page must live in one shard)", hc.Interleave, g.MacroPageSize)
	}
	// NewInterleave bounds the channel field to the physical address bits,
	// so the stripe below cannot overflow.
	iv, err := addr.NewInterleave(n, hc.Interleave)
	if err != nil {
		return hc, fmt.Errorf("memctrl: %w", err)
	}
	// Both region boundaries must fall on whole stripes so that stripping
	// the channel bits maps the global on-package region [0, OnCap) exactly
	// onto every shard's local [0, OnCap/n) — the shard-local static split
	// then equals the global one.
	stripe := iv.Granularity() * uint64(n)
	if g.OnPackageCapacity%stripe != 0 || g.TotalCapacity%stripe != 0 {
		return hc, fmt.Errorf("memctrl: capacities (%d on, %d total) must be multiples of the %d-byte stripe of %d channels",
			g.OnPackageCapacity, g.TotalCapacity, stripe, n)
	}
	return hc, nil
}

// NewHub builds the hub over the layout Sharding resolves, one controller
// per channel. cfg.Geometry is split N ways (capacities divide, device
// structure per shard unchanged; one channel keeps it whole). With N > 1,
// cfg.Obs/cfg.Power must be unset — per-shard instruments come from
// HubConfig so shards never share mutable state; one channel takes them
// from either. onResult, when non-nil, observes every completed access;
// its AccessResult carries the globalized physical address and the
// shard-local machine address.
func NewHub(cfg Config, hubCfg HubConfig, onResult func(AccessResult)) (*Hub, error) {
	hubCfg, err := Sharding(cfg.Geometry, hubCfg)
	if err != nil {
		return nil, err
	}
	n := hubCfg.Channels
	if n > 1 && (cfg.Obs != nil || cfg.Power != nil) {
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
	h := &Hub{ctrls: make([]*Controller, n)}
	for i := range h.ctrls {
		scfg := cfg
		scfg.Geometry = shardGeom
		scfg.CopyHop = hubCfg.HopLatency
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
		if h.ctrls[i], err = New(scfg, shardResult); err != nil {
			if n > 1 {
				err = fmt.Errorf("memctrl: channel %d: %w", i, err)
			}
			return nil, err
		}
	}
	// One channel has no channel bits to route by, so its unit is the
	// macro page (Sharding reports 0 there, for the config digest). New
	// has validated the page size by now.
	if hubCfg.Interleave == 0 {
		hubCfg.Interleave = cfg.Geometry.MacroPageSize
	}
	if h.iv, err = addr.NewInterleave(n, hubCfg.Interleave); err != nil {
		return nil, fmt.Errorf("memctrl: %w", err)
	}
	return h, nil
}

// Channels returns the shard count.
func (h *Hub) Channels() int { return len(h.ctrls) }

// Interleave returns the channel-routing mapping.
func (h *Hub) Interleave() addr.Interleave { return h.iv }

// Shard exposes channel i's controller (the sim's run loop drives shards
// directly: a single channel inline, more through workers that route their
// own records).
func (h *Hub) Shard(i int) *Controller { return h.ctrls[i] }

// Route decodes the channel and shard-local address of a physical address.
func (h *Hub) Route(phys uint64) (ch int, local uint64) {
	return h.iv.ChannelOf(phys), h.iv.Local(phys)
}

// Access routes one program access to its channel's controller. The
// allocation-free shard access path is preserved: routing is three shifts
// and a slice index.
func (h *Hub) Access(phys uint64, write bool, now int64) error {
	return h.ctrls[h.iv.ChannelOf(phys)].Access(h.iv.Local(phys), write, now)
}

// Flush drains every shard and returns the latest final cycle.
func (h *Hub) Flush() int64 {
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
// shard's goroutine finished first. It is the only report fold: a bare
// controller reports through a one-shard hub.
func (h *Hub) Report() Report {
	var r Report
	var hist stats.Histogram
	var coreLatSum int64
	var nDone uint64
	var served [2]uint64
	var queued [2]int64
	lat := [2]*stats.LatencyStat{&r.On, &r.Off}
	dram := [2]*stats.LatencyStat{&r.DRAMOn, &r.DRAMOff}
	for _, c := range h.ctrls {
		r.All.Merge(c.allLat)
		r.DRAMAll.Merge(c.dramAll)
		hist.Merge(&c.hist)
		coreLatSum += c.coreLatSum
		nDone += c.nDone
		for i := range c.regions {
			rg := &c.regions[i]
			lat[i].Merge(rg.lat)
			dram[i].Merge(rg.dram)
			s, _, q := rg.sch.Stats()
			served[i] += s
			queued[i] += q
		}
		if c.mig != nil {
			r.Migration.Merge(c.mig.Stats())
		}
		if c.cache != nil {
			if r.Scheme == nil {
				r.Scheme = &SchemeReport{Name: c.cache.String()}
			}
			r.Scheme.Stats.Add(c.cache.Stats())
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
	for i, mean := range [2]*float64{&r.OnQueueMean, &r.OffQueueMean} {
		if served[i] > 0 {
			*mean = float64(queued[i]) / float64(served[i])
		}
	}
	r.Faults = h.FaultReport()
	return r
}
