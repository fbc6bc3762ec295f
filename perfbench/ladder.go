package main

// The traced run: a ladder of rungs over one packed trace, each timed from
// outside around calls into one layer's public functions. Rungs the
// benchmark cannot separate from outside are derived by subtraction and say
// so. A layer a workload does not use reports 0 for its time rung.

import (
	"fmt"
	"os"
	"time"

	"heteromem/internal/config"
	"heteromem/internal/core"
	"heteromem/internal/memctrl"
	"heteromem/internal/obs"
	"heteromem/internal/scheme"
	"heteromem/internal/sim"
	"heteromem/internal/trace"
	synth "heteromem/internal/workload"
)

// buildTraceTimed is buildTrace with generation and packing timed apart,
// one chunk at a time.
func buildTraceTimed(w workload, seed int64) (p *trace.Packed, gen, pack time.Duration, err error) {
	g, err := synth.NewMemory(w.trace, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	pb := trace.NewPackedBuilder()
	var b trace.Batch
	for pb.Count() < w.records {
		want := uint64(trace.PackedChunkRecords)
		if rem := w.records - pb.Count(); rem < want {
			want = rem
		}
		b.Resize(int(want))
		t0 := time.Now()
		k, err := g.NextBatch(&b)
		t1 := time.Now()
		if err != nil {
			return nil, 0, 0, fmt.Errorf("generate %s: %w", w.trace, err)
		}
		pb.AppendBatch(&b, k)
		gen += t1.Sub(t0)
		pack += time.Since(t1)
	}
	t := time.Now()
	p = pb.Finish()
	pack += time.Since(t)
	return p, gen, pack, nil
}

// newHub builds the controller hub sim.Run builds for cfg, observability
// registries included, so a serial replay drives the same code.
func newHub(cfg sim.Config) (*memctrl.Hub, error) {
	mcfg := memctrl.Config{
		Geometry:   cfg.Geometry,
		Latencies:  cfg.Latencies,
		OffTiming:  cfg.OffTiming,
		OnTiming:   cfg.OnTiming,
		Migration:  cfg.Migration,
		Scheme:     cfg.Scheme,
		OSAssisted: cfg.OSAssisted,
		Sched:      cfg.Sched,
		Audit:      cfg.Audit,
		Fault:      cfg.Fault,
	}
	hc := memctrl.HubConfig{Channels: cfg.Channels}
	if cfg.Channels > 1 {
		hc.Interleave = cfg.InterleaveBytes
		hc.HopLatency = cfg.HopLatency
	}
	if cfg.Metrics {
		if cfg.Channels > 1 {
			hc.ShardObs = make([]*obs.Registry, cfg.Channels)
			for i := range hc.ShardObs {
				hc.ShardObs[i] = obs.NewRegistry()
			}
		} else {
			mcfg.Obs = obs.NewRegistry()
		}
	}
	return memctrl.NewHub(mcfg, hc, nil)
}

// replayer decodes the packed trace batch by batch, untimed, split at the
// warmup edge so a caller can reset statistics where sim.Run does.
type replayer struct {
	src  *trace.PackedSource
	w    workload
	b    trace.Batch
	done uint64
}

func newReplayer(w workload, p *trace.Packed) *replayer {
	return &replayer{src: trace.NewPackedSource(p), w: w}
}

// next decodes the next batch; ok is false at the end of the trace.
func (r *replayer) next() (k int, ok bool, err error) {
	if r.done >= r.w.records {
		return 0, false, nil
	}
	want := uint64(trace.PackedChunkRecords)
	if rem := r.w.records - r.done; rem < want {
		want = rem
	}
	if r.done < r.w.warmup {
		if rem := r.w.warmup - r.done; rem < want {
			want = rem
		}
	}
	r.b.Resize(int(want))
	k, err = r.src.NextBatch(&r.b)
	if err != nil {
		return 0, false, fmt.Errorf("decode at record %d: %w", r.done, err)
	}
	r.done += uint64(k)
	return k, true, nil
}

// atWarmup reports whether the last batch ended exactly at the warmup edge.
func (r *replayer) atWarmup() bool { return r.w.warmup > 0 && r.done == r.w.warmup }

// serialSample is one serial replay through Hub.Route and Hub.Access.
type serialSample struct {
	route, access, flush, report time.Duration
	warmDone                     uint64 // accesses completed by the warmup edge
	dram                         dramCounts
	rep                          memctrl.Report
	last                         int64
}

// routeSink keeps the compiler from dropping the timed Route calls.
var routeSink uint64

// serialReplay drives a fresh hub with the decoded trace on one goroutine:
// Route alone over each batch, then Access over the same batch, resetting
// statistics at the warmup edge; then Flush and Report.
func serialReplay(w workload, p *trace.Packed, cfg sim.Config) (serialSample, error) {
	settle()
	hub, err := newHub(cfg)
	if err != nil {
		return serialSample{}, err
	}
	var s serialSample
	r := newReplayer(w, p)
	for {
		k, ok, err := r.next()
		if err != nil {
			return serialSample{}, err
		}
		if !ok {
			break
		}
		addrs, writes, cycles := r.b.Addr[:k], r.b.Write[:k], r.b.Cycle[:k]
		t0 := time.Now()
		for _, a := range addrs {
			ch, local := hub.Route(a)
			routeSink += uint64(ch) + local
		}
		t1 := time.Now()
		for j, a := range addrs {
			if err := hub.Access(a, writes[j], int64(cycles[j])); err != nil {
				return serialSample{}, fmt.Errorf("access %d: %w", r.done-uint64(k)+uint64(j), err)
			}
		}
		t2 := time.Now()
		s.route += t1.Sub(t0)
		s.access += t2.Sub(t1)
		if r.atWarmup() {
			s.warmDone = hub.Report().All.Count()
			hub.ResetStats()
		}
	}
	t := time.Now()
	s.last = hub.Flush()
	s.flush = time.Since(t)
	if err := hub.Err(); err != nil {
		return serialSample{}, err
	}
	t = time.Now()
	s.rep = hub.Report()
	s.report = time.Since(t)
	s.dram = readDRAM(hub)
	return s, nil
}

// dramCounts sums the row-buffer outcomes of every shard's two devices.
type dramCounts struct {
	onHits, onAccesses, offHits, offAccesses, offConflicts, bursts uint64
}

func readDRAM(hub *memctrl.Hub) dramCounts {
	var d dramCounts
	for i := 0; i < hub.Channels(); i++ {
		on, off := hub.Shard(i).Devices()
		h, m, c, b := on.Stats()
		d.onHits, d.onAccesses, d.bursts = d.onHits+h, d.onAccesses+h+m+c, d.bursts+b
		h, m, c, b = off.Stats()
		d.offHits, d.offAccesses, d.offConflicts, d.bursts = d.offHits+h, d.offAccesses+h+m+c, d.offConflicts+c, d.bursts+b
	}
	return d
}

// shardGeometry is the geometry of one channel's controller.
func shardGeometry(cfg sim.Config) (config.MemoryGeometry, error) {
	if cfg.Channels > 1 {
		return cfg.Geometry.Shard(cfg.Channels)
	}
	return cfg.Geometry, nil
}

// forEachRouted decodes the trace batch by batch, routes every record to
// its shard untimed, and hands fn each batch split by shard, so the timed
// loop inside fn holds nothing but the layer's calls.
func forEachRouted(w workload, p *trace.Packed, cfg sim.Config, fn func(local [][]uint64, write [][]bool)) error {
	hub, err := memctrl.NewHub(memctrl.Config{Geometry: cfg.Geometry, Latencies: cfg.Latencies,
		OffTiming: cfg.OffTiming, OnTiming: cfg.OnTiming}, memctrl.HubConfig{Channels: cfg.Channels}, nil)
	if err != nil {
		return err
	}
	local := make([][]uint64, hub.Channels())
	write := make([][]bool, hub.Channels())
	r := newReplayer(w, p)
	for {
		k, ok, err := r.next()
		if err != nil || !ok {
			return err
		}
		for ch := range local {
			local[ch], write[ch] = local[ch][:0], write[ch][:0]
		}
		for j := 0; j < k; j++ {
			ch, a := hub.Route(r.b.Addr[j])
			local[ch] = append(local[ch], a)
			write[ch] = append(write[ch], r.b.Write[j])
		}
		fn(local, write)
	}
}

// migratorRung drives one standalone core.Migrator per shard through
// Translate, OnAccess and EpochTick, completing every swap step at once.
// It returns 0 when the workload runs no migration.
func migratorRung(w workload, p *trace.Packed, cfg sim.Config) (time.Duration, error) {
	if cfg.Migration == nil || cfg.Scheme.Kind != scheme.KindMigrate {
		return 0, nil
	}
	g, err := shardGeometry(cfg)
	if err != nil {
		return 0, err
	}
	n := max(cfg.Channels, 1)
	migs := make([]*core.Migrator, n)
	for i := range migs {
		opt := *cfg.Migration
		opt.Slots = g.OnPackageSlots()
		opt.TotalPages = g.TotalPages()
		opt.PageSize = g.MacroPageSize
		opt.SubBlockSize = g.SubBlockSize
		if migs[i], err = core.NewMigrator(opt); err != nil {
			return 0, err
		}
	}
	settle()
	var total time.Duration
	var stepErr error
	err = forEachRouted(w, p, cfg, func(local [][]uint64, _ [][]bool) {
		t := time.Now()
		for ch, addrs := range local {
			m := migs[ch]
			for _, a := range addrs {
				_, on := m.Translate(a)
				m.OnAccess(a, on)
				if subs := m.EpochTick(); subs != nil {
					if err := completeSwap(m, subs); err != nil && stepErr == nil {
						stepErr = err
					}
				}
			}
		}
		total += time.Since(t)
	})
	if err == nil {
		err = stepErr
	}
	return total, err
}

// completeSwap finishes an in-flight swap immediately: every sub-block of
// every step is marked copied and the step retired.
func completeSwap(m *core.Migrator, subs []core.SubCopy) error {
	for {
		for _, sc := range subs {
			m.SubDone(sc.SubIndex)
		}
		next, done, err := m.StepDone()
		if err != nil || done {
			return err
		}
		subs = next
	}
}

// lookupSink keeps the compiler from dropping the timed Lookup calls.
var lookupSink uint64

// lookupRung drives one standalone alloy cache per shard through Lookup,
// the tag-array and predictor work of the alloy schemes. It returns 0 when
// the workload runs another scheme.
func lookupRung(w workload, p *trace.Packed, cfg sim.Config) (time.Duration, error) {
	if cfg.Scheme.Kind != scheme.KindAlloy {
		return 0, nil
	}
	g, err := shardGeometry(cfg)
	if err != nil {
		return 0, err
	}
	n := max(cfg.Channels, 1)
	caches := make([]*scheme.Alloy, n)
	for i := range caches {
		if caches[i], err = scheme.NewAlloy(cfg.Scheme, g.OnPackageCapacity, 0, g.BurstBytes); err != nil {
			return 0, err
		}
	}
	settle()
	var total time.Duration
	err = forEachRouted(w, p, cfg, func(local [][]uint64, write [][]bool) {
		t := time.Now()
		for ch, addrs := range local {
			c, writes := caches[ch], write[ch]
			for j, a := range addrs {
				lookupSink += c.Lookup(a, writes[j]).Slot
			}
		}
		total += time.Since(t)
	})
	return total, err
}

// ladder builds the run's traces, timing generation and packing, then runs
// rounds of every rung over the first trace until the budget is spent. Each
// time rung reports its fastest round, as records_per_s reports the fastest
// replay; counts come from the last round, which every round reproduces.
func ladder(w workload, seed int64, budget time.Duration) (result, error) {
	cfg := w.runConfig()
	toggled := cfg
	toggled.Metrics = !cfg.Metrics

	var p *trace.Packed
	var genNs, packNs []float64
	for i, s := range traceSeeds(seed) {
		settle()
		q, gen, pack, err := buildTraceTimed(w, s)
		if err != nil {
			return result{}, err
		}
		if i == 0 {
			p = q
		}
		genNs = append(genNs, perRecord(w, gen))
		packNs = append(packNs, perRecord(w, pack))
	}

	t := newTally(1)
	var (
		plainNs, tracedNs, decodeNs, constructMs []float64
		metricsOnNs, metricsOffNs                []float64
		routeNs, accessNs, flushMs, reportUs     []float64
		migNs, lookupNs, gcCycles, gcPauseMs     []float64
		serial                                   serialSample
	)
	start := time.Now()
	for round := 0; round < minSamples || time.Since(start) < budget; round++ {
		s, err := serialReplay(w, p, cfg)
		if !t.reference(w, seed, 0, s, err) {
			continue
		}
		plain, err := timedRun(p, cfg, false)
		okPlain := t.check(w, 0, plain, err)
		traced, err := timedRun(p, cfg, true)
		okTraced := t.check(w, 0, traced, err)
		other, err := timedRun(p, toggled, false)
		if !t.check(w, 0, other, err) || !okPlain || !okTraced {
			continue
		}
		mig, err := migratorRung(w, p, cfg)
		if err != nil {
			return result{}, fmt.Errorf("migrator rung: %w", err)
		}
		look, err := lookupRung(w, p, cfg)
		if err != nil {
			return result{}, fmt.Errorf("lookup rung: %w", err)
		}

		plainNs = append(plainNs, perRecord(w, plain.timed))
		tracedNs = append(tracedNs, perRecord(w, traced.timed))
		decodeNs = append(decodeNs, perRecord(w, traced.decode))
		constructMs = append(constructMs, traced.construct.Seconds()*1e3)
		on, off := plain, other
		if !cfg.Metrics {
			on, off = other, plain
		}
		metricsOnNs = append(metricsOnNs, perRecord(w, on.timed))
		metricsOffNs = append(metricsOffNs, perRecord(w, off.timed))
		routeNs = append(routeNs, perRecord(w, s.route))
		accessNs = append(accessNs, perRecord(w, s.access))
		flushMs = append(flushMs, s.flush.Seconds()*1e3)
		reportUs = append(reportUs, s.report.Seconds()*1e6)
		migNs = append(migNs, perRecord(w, mig))
		lookupNs = append(lookupNs, perRecord(w, look))
		gcCycles = append(gcCycles, float64(plain.gcCycles))
		gcPauseMs = append(gcPauseMs, plain.gcPause.Seconds()*1e3)
		serial = s
	}
	if len(plainNs) == 0 {
		return t.result(map[string]metric{}), nil
	}

	channels := float64(max(cfg.Channels, 1))
	decode, access := fastest(decodeNs), fastest(accessNs)
	m := map[string]metric{
		"sim.run_ns_per_record":              {fastest(plainNs), "ns"},
		"workload.gen_ns_per_record":         {fastest(genNs), "ns"},
		"trace.pack_ns_per_record":           {fastest(packNs), "ns"},
		"trace.packed_bytes_per_record":      {float64(p.EncodedBytes()) / float64(w.records), "B"},
		"sim.construct_ms":                   {fastest(constructMs), "ms"},
		"trace.decode_ns_per_record":         {decode, "ns"},
		"memctrl.route_ns_per_record":        {fastest(routeNs), "ns"},
		"memctrl.access_ns_per_record":       {access, "ns"},
		"memctrl.flush_ms":                   {fastest(flushMs), "ms"},
		"memctrl.report_us":                  {fastest(reportUs), "us"},
		"core.migrator_ns_per_record":        {fastest(migNs), "ns"},
		"scheme.lookup_ns_per_record":        {fastest(lookupNs), "ns"},
		"memctrl.self_ns_per_record":         {access - fastest(migNs) - fastest(lookupNs), "ns"},
		"sim.loop_ns_per_record":             {fastest(tracedNs) - decode - access/channels, "ns"},
		"sim.shard_speedup":                  {(decode + access) / fastest(plainNs), "x"},
		"obs.metrics_overhead_ns_per_record": {fastest(metricsOnNs) - fastest(metricsOffNs), "ns"},
		"bench.tracing_overhead_ratio":       {fastest(tracedNs) / fastest(plainNs), "x"},
		"go.gc_cycles":                       {median(gcCycles), "count"},
		"go.gc_pause_ms":                     {median(gcPauseMs), "ms"},
	}
	for k, v := range simulatedCounts(w, serial) {
		m[k] = v
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ladder rounds, untraced %.1f ns/record\n",
		w.name, seed, len(plainNs), fastest(plainNs))
	return t.result(m), nil
}

func perRecord(w workload, d time.Duration) float64 {
	return float64(d.Nanoseconds()) / float64(w.records)
}

// simulatedCounts reads the modelled components' counters from a serial
// replay: the report, and each shard's DRAM devices. Migration, scheme and
// device counters cover the whole run, warmup included, so their
// per-record forms divide by every record replayed.
func simulatedCounts(w workload, s serialSample) map[string]metric {
	recs := float64(w.records)
	mig := s.rep.Migration
	d := s.dram
	var sc scheme.Stats
	var hitRate float64
	if s.rep.Scheme != nil {
		sc, hitRate = s.rep.Scheme.Stats, s.rep.Scheme.HitRate
	}
	return map[string]metric{
		"core.epochs":                       {float64(mig.Epochs), "count"},
		"core.swaps_completed":              {float64(mig.SwapsCompleted), "count"},
		"core.bytes_copied_per_record":      {float64(mig.BytesCopied) / recs, "B"},
		"core.triggers_blocked":             {float64(mig.TriggersBlocked), "count"},
		"core.live_early_hits":              {float64(mig.LiveEarlyHits), "count"},
		"sched.on_queue_mean_cycles":        {s.rep.OnQueueMean, "cycles"},
		"sched.off_queue_mean_cycles":       {s.rep.OffQueueMean, "cycles"},
		"dram.on_row_hit_rate":              {ratio(d.onHits, d.onAccesses), "ratio"},
		"dram.off_row_hit_rate":             {ratio(d.offHits, d.offAccesses), "ratio"},
		"dram.off_row_conflicts_per_record": {float64(d.offConflicts) / recs, "count"},
		"dram.bursts_per_record":            {float64(d.bursts) / recs, "count"},
		"scheme.hit_rate":                   {hitRate, "ratio"},
		"scheme.fills_per_record":           {float64(sc.Fills) / recs, "count"},
		"scheme.tag_probes_per_record":      {float64(sc.TagProbes) / recs, "count"},
		"scheme.wasted_off_per_record":      {float64(sc.WastedOff) / recs, "count"},
		"memctrl.p95_latency_cycles":        {float64(s.rep.P95), "cycles"},
		"memctrl.on_share":                  {s.rep.OnShare, "ratio"},
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
