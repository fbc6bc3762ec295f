package heteromem

// The benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (scaled down so `go test -bench=.` completes in
// minutes; run cmd/hmsim for full-scale reproductions), plus the ablation
// benches DESIGN.md calls out and microbenchmarks of the core data paths.

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"heteromem/internal/addr"
	"heteromem/internal/core"
	"heteromem/internal/dram"
	"heteromem/internal/experiments"
	"heteromem/internal/memctrl"
	"heteromem/internal/sched"
	"heteromem/internal/scheme"
	"heteromem/internal/sim"
	"heteromem/internal/trace"
	"heteromem/internal/workload"

	iconfig "heteromem/internal/config"
)

// benchParams scales experiment drivers for benchmarking.
func benchParams(records uint64, wls ...string) experiments.Params {
	return experiments.Params{Records: records, Warmup: records / 2, Seed: 1, Workloads: wls}
}

// ---- Section II ----

func BenchmarkTable1Footprints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table1(context.Background(), io.Discard, experiments.Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table2(context.Background(), io.Discard, experiments.Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4MissRate(b *testing.B) {
	p := benchParams(120_000, "EP.C", "CG.C", "FT.C")
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig4Data(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].MissRate*100, "missrate-1GB-%")
	}
}

func BenchmarkFig5IPC(b *testing.B) {
	p := benchParams(120_000, "EP.C", "FT.C")
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5Data(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		_, _, all := rows[0].Improvement()
		b.ReportMetric(all, "ideal-ipc-gain-%")
	}
}

// ---- Section III ----

func BenchmarkFig10Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig10(context.Background(), io.Discard, experiments.Params{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(core.HardwareBits(1*GiB, 4*MiB, 4*KiB, addr.Bits)), "bits-at-4MB")
}

// ---- Section IV ----

func BenchmarkFig11Designs(b *testing.B) {
	p := benchParams(150_000, "SPEC2006")
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig11Data(context.Background(), p, 1000)
		if err != nil {
			b.Fatal(err)
		}
		var worstN, bestLive float64
		for _, pt := range pts {
			if pt.PageSize == 4*MiB {
				switch pt.Design {
				case core.DesignN:
					worstN = pt.MeanLatency
				case core.DesignLive:
					bestLive = pt.MeanLatency
				}
			}
		}
		b.ReportMetric(worstN-bestLive, "N-minus-Live-cycles")
	}
}

func benchFig1214(b *testing.B, interval uint64) {
	p := benchParams(200_000, "SPEC2006", "pgbench")
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig1214Data(context.Background(), p, interval)
		if err != nil {
			b.Fatal(err)
		}
		best := pts[0].MeanLatency
		for _, pt := range pts {
			if pt.MeanLatency < best {
				best = pt.MeanLatency
			}
		}
		b.ReportMetric(best, "best-latency-cycles")
	}
}

func BenchmarkFig12Interval1K(b *testing.B)   { benchFig1214(b, 1000) }
func BenchmarkFig13Interval10K(b *testing.B)  { benchFig1214(b, 10000) }
func BenchmarkFig14Interval100K(b *testing.B) { benchFig1214(b, 100000) }

func BenchmarkTable4Effectiveness(b *testing.B) {
	p := benchParams(400_000, "SPEC2006")
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4Data(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Effectiveness, "effectiveness-%")
	}
}

func BenchmarkFig15Capacity(b *testing.B) {
	p := benchParams(200_000, "pgbench")
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig15Data(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].LatMig, "lat-512MB-cycles")
	}
}

func BenchmarkFig16Power(b *testing.B) {
	p := benchParams(120_000, "pgbench")
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig16Data(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		max := 0.0
		for _, pt := range pts {
			if pt.Normalized > max {
				max = pt.Normalized
			}
		}
		b.ReportMetric(max, "max-normalized-power")
	}
}

// ---- Ablations (DESIGN.md section 5) ----

// ablationRun simulates SPEC2006 under one configuration and returns the
// mean DRAM latency.
func ablationRun(b *testing.B, mutate func(*sim.Config)) float64 {
	b.Helper()
	gen, err := workload.NewMemory("SPEC2006", 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Default()
	cfg.Geometry.MacroPageSize = 64 * KiB
	cfg.Migration = &core.Options{Design: core.DesignLive, SwapInterval: 1000}
	cfg.MaxRecords = 250_000
	cfg.Warmup = 125_000
	mutate(&cfg)
	res, err := sim.Run(trace.NewLimit(gen, cfg.MaxRecords), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res.MeanDRAMLatency
}

func BenchmarkAblationCriticalFirst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationRun(b, func(*sim.Config) {})
		without := ablationRun(b, func(c *sim.Config) { c.Migration.NoCriticalFirst = true })
		b.ReportMetric(without-with, "critical-first-gain-cycles")
	}
}

func BenchmarkAblationMultiQueue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mq := ablationRun(b, func(*sim.Config) {})
		naive := ablationRun(b, func(c *sim.Config) { c.Migration.NaiveMRU = true })
		b.ReportMetric(naive-mq, "multiqueue-gain-cycles")
	}
}

func BenchmarkAblationPendingBit(b *testing.B) {
	// N-1 (pending bit hides the swap) vs N (stall-the-world): what the
	// P bit buys at coarse granularity.
	for i := 0; i < b.N; i++ {
		n1 := ablationRun(b, func(c *sim.Config) {
			c.Geometry.MacroPageSize = 4 * MiB
			c.Migration.Design = core.DesignN1
		})
		n := ablationRun(b, func(c *sim.Config) {
			c.Geometry.MacroPageSize = 4 * MiB
			c.Migration.Design = core.DesignN
		})
		b.ReportMetric(n-n1, "pending-bit-gain-cycles")
	}
}

func BenchmarkAblationSchedulers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		frfcfs := ablationRun(b, func(*sim.Config) {})
		fcfs := ablationRun(b, func(c *sim.Config) { c.Sched.FCFSOnly = true })
		b.ReportMetric(fcfs-frfcfs, "frfcfs-gain-cycles")
	}
}

// ---- Microbenchmarks of the core data paths ----

// benchAccessPath drives Controller.Access directly — no sim layer, no
// generator work inside the timed region — over a pre-materialized trace,
// so ns/op and allocs/op measure the per-record access path alone. The
// paths taken at steady state (translation, policy touch, scheduling,
// completion accounting, object recycling) must be allocation-free.
func benchAccessPath(b *testing.B, design core.Design) {
	benchAccessPathConfig(b, &core.Options{Design: design, SwapInterval: 1000}, scheme.Spec{})
}

// benchAccessPathConfig is benchAccessPath generalized over the capacity
// scheme: pure cache schemes run with no migration engine, memcache runs
// its memory part under the given migration options. All of them share the
// same zero-allocation bar as the migration designs.
func benchAccessPathConfig(b *testing.B, mig *core.Options, sp scheme.Spec) {
	scfg := sim.Default()
	scfg.Geometry.MacroPageSize = 64 * KiB
	mcfg := memctrl.Config{
		Geometry:  scfg.Geometry,
		Latencies: scfg.Latencies,
		OffTiming: scfg.OffTiming,
		OnTiming:  scfg.OnTiming,
		Sched:     scfg.Sched,
		Migration: mig,
		Scheme:    sp,
	}
	ctrl, err := memctrl.New(mcfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewMemory("SPEC2006", 1)
	if err != nil {
		b.Fatal(err)
	}
	type rec struct {
		addr  uint64
		gap   int64
		write bool
	}
	const n = 1 << 15
	trc, err := trace.Collect(gen, n)
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]rec, n)
	var prev uint64
	for i, r := range trc {
		recs[i] = rec{addr: r.Addr, gap: int64(r.Cycle - prev), write: r.Write}
		prev = r.Cycle
	}
	// One untimed pass warms the freelists, scheduler queues, and policy
	// arenas and gets the first swaps out of the way.
	var cycle int64
	for _, r := range recs {
		cycle += r.gap
		if err := ctrl.Access(r.addr, r.write, cycle); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i&(n-1)]
		cycle += r.gap
		if err := ctrl.Access(r.addr, r.write, cycle); err != nil {
			b.Fatal(err)
		}
	}
	ctrl.Flush()
	if err := ctrl.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkAccessPath(b *testing.B) {
	for _, d := range []struct {
		name   string
		design core.Design
	}{
		{"N", core.DesignN},
		{"N-1", core.DesignN1},
		{"Live", core.DesignLive},
	} {
		b.Run(d.name, func(b *testing.B) { benchAccessPath(b, d.design) })
	}
}

// BenchmarkAccessPathScheme covers the full scheme grid on the same
// per-record access path: the three migration designs under the default
// scheme, the two pure cache schemes, and the memcache hybrid. Every
// variant must hold 0 allocs/op at steady state.
func BenchmarkAccessPathScheme(b *testing.B) {
	live := &core.Options{Design: core.DesignLive, SwapInterval: 1000}
	for _, v := range []struct {
		name   string
		mig    *core.Options
		scheme string
	}{
		{"N", &core.Options{Design: core.DesignN, SwapInterval: 1000}, ""},
		{"N-1", &core.Options{Design: core.DesignN1, SwapInterval: 1000}, ""},
		{"Live", live, ""},
		{"Alloy", nil, "alloy"},
		{"CacheMode", nil, "cachemode"},
		{"MemCache", live, "memcache"},
	} {
		b.Run(v.name, func(b *testing.B) {
			var sp scheme.Spec
			if v.scheme != "" {
				var err error
				if sp, err = scheme.Parse(v.scheme); err != nil {
					b.Fatal(err)
				}
			}
			benchAccessPathConfig(b, v.mig, sp)
		})
	}
}

// benchAccessPathSharded drives Hub.Access — channel routing plus the shard
// controller's pipeline — the same way benchAccessPath drives a bare
// controller, so the sharded ns/op and allocs/op are directly comparable.
// The access path must stay allocation-free at every channel count (the
// hard gate is memctrl's TestHubZeroAllocAccess; the benchmark archives the
// numbers).
func benchAccessPathSharded(b *testing.B, channels int) {
	scfg := sim.Default()
	scfg.Geometry.MacroPageSize = 64 * KiB
	mcfg := memctrl.Config{
		Geometry:  scfg.Geometry,
		Latencies: scfg.Latencies,
		OffTiming: scfg.OffTiming,
		OnTiming:  scfg.OnTiming,
		Sched:     scfg.Sched,
		Migration: &core.Options{Design: core.DesignLive, SwapInterval: 1000},
	}
	hub, err := memctrl.NewHub(mcfg, memctrl.HubConfig{Channels: channels}, nil)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewMemory("SPEC2006", 1)
	if err != nil {
		b.Fatal(err)
	}
	type rec struct {
		addr  uint64
		gap   int64
		write bool
	}
	const n = 1 << 15
	trc, err := trace.Collect(gen, n)
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]rec, n)
	var prev uint64
	for i, r := range trc {
		recs[i] = rec{addr: r.Addr, gap: int64(r.Cycle - prev), write: r.Write}
		prev = r.Cycle
	}
	var cycle int64
	for _, r := range recs {
		cycle += r.gap
		if err := hub.Access(r.addr, r.write, cycle); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i&(n-1)]
		cycle += r.gap
		if err := hub.Access(r.addr, r.write, cycle); err != nil {
			b.Fatal(err)
		}
	}
	hub.Flush()
	if err := hub.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkAccessPathSharded(b *testing.B) {
	for _, channels := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "c1", 2: "c2", 4: "c4"}[channels], func(b *testing.B) {
			benchAccessPathSharded(b, channels)
		})
	}
}

func BenchmarkTranslationTableLookup(b *testing.B) {
	mig, err := core.NewMigrator(core.Options{
		Design: core.DesignLive, Slots: 128, TotalPages: 1024,
		PageSize: 4 * MiB, SubBlockSize: 4 * KiB, SwapInterval: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mig.Translate(uint64(i) * 64 % (4 * GiB))
	}
}

func BenchmarkDRAMService(b *testing.B) {
	dev, err := dram.New(dram.Geometry{
		Channels: 4, BanksPerCh: 8, RowBytes: 8192, BurstBytes: 64,
	}, iconfig.OffPackageTiming())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.Service(uint64(i)*64%(1<<30), i%4 == 0, int64(i)*20)
	}
}

// BenchmarkSchedulerThroughput submits one request per iteration. The
// with-bulk leg also queues a 64-cycle background job every 8th iteration,
// rotating over the channels, so the bulk FIFO is pushed and popped at
// steady state too. The advance leg advances the clock before each Submit,
// as Controller.Access does, and queues a job the size of a 4 KiB
// off-package copy leg (1,237 cycles) every 32nd iteration, so channels
// sit idle with a copy in flight between their requests. The backlog leg
// queues requests behind each other (see benchBacklog).
func BenchmarkSchedulerThroughput(b *testing.B) {
	b.Run("requests", func(b *testing.B) { benchScheduler(b, 0, 0, false) })
	b.Run("with-bulk", func(b *testing.B) { benchScheduler(b, 8, 64, false) })
	b.Run("advance", func(b *testing.B) { benchScheduler(b, 32, 1237, true) })
	b.Run("backlog", benchBacklog)
}

// benchScheduler drives a 4-channel off-package scheduler; bulkEvery > 0
// adds a bulk job of jobCycles every bulkEvery requests, and advance
// advances the clock before every request.
func benchScheduler(b *testing.B, bulkEvery int, jobCycles int64, advance bool) {
	dev, _ := dram.New(dram.Geometry{
		Channels: 4, BanksPerCh: 8, RowBytes: 8192, BurstBytes: 64,
	}, iconfig.OffPackageTiming())
	// Recycle requests and jobs through freelists fed by the completion
	// callbacks, the way the memory controller drives the scheduler at
	// steady state.
	var free []*sched.Request
	var freeJobs []*sched.BulkJob
	s, err := sched.New(dev, sched.Config{}, func(r *sched.Request) {
		free = append(free, r)
	}, func(j *sched.BulkJob) {
		freeJobs = append(freeJobs, j)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := int64(i) * 25
		var r *sched.Request
		if n := len(free); n > 0 {
			r, free = free[n-1], free[:n-1]
			*r = sched.Request{}
		} else {
			r = new(sched.Request)
		}
		r.ID = uint64(i)
		r.Arrive = now
		r.Addr = uint64(i) * 64 % (1 << 30)
		if advance {
			s.Advance(now)
		}
		s.Submit(r, now)
		if bulkEvery > 0 && i%bulkEvery == 0 {
			var j *sched.BulkJob
			if n := len(freeJobs); n > 0 {
				j, freeJobs = freeJobs[n-1], freeJobs[:n-1]
				*j = sched.BulkJob{}
			} else {
				j = new(sched.BulkJob)
			}
			j.Duration, j.Earliest = jobCycles, now
			s.SubmitBulk(i/bulkEvery%4, j, now)
		}
	}
	s.Flush()
}

// benchBacklog drives one off-package channel with bursts of 64 requests to
// random rows. A burst is submitted at one clock and arrives 600 cycles
// later; the clock then moves 7,680 cycles, a little more than the channel
// needs to serve 64 random rows. So the queue holds up to 64 requests (32
// on average), and each decision scans it for the oldest row hit and
// removes its pick: the FR-FCFS work that a request served at Submit never
// reaches.
func benchBacklog(b *testing.B) {
	dev, _ := dram.New(dram.Geometry{
		Channels: 1, BanksPerCh: 8, RowBytes: 8192, BurstBytes: 64,
	}, iconfig.OffPackageTiming())
	var free []*sched.Request
	s, err := sched.New(dev, sched.Config{}, func(r *sched.Request) {
		free = append(free, r)
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := int64(i/64) * 7680
		var r *sched.Request
		if n := len(free); n > 0 {
			r, free = free[n-1], free[:n-1]
			*r = sched.Request{}
		} else {
			r = new(sched.Request)
		}
		r.ID = uint64(i)
		r.Arrive = now + 600
		r.Addr = uint64(rng.Int63n(1<<30)) &^ 63
		s.Advance(now)
		s.Submit(r, now)
	}
	s.Flush()
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	gen, err := workload.NewMemory("pgbench", 1)
	if err != nil {
		b.Fatal(err)
	}
	var batch trace.Batch
	batch.Resize(trace.PackedChunkRecords)
	b.ResetTimer()
	for n := 0; n < b.N; {
		batch.Resize(min(b.N-n, trace.PackedChunkRecords))
		k, err := gen.NextBatch(&batch)
		if err != nil {
			b.Fatal(err)
		}
		n += k
	}
}

func BenchmarkEndToEndSimulation(b *testing.B) {
	gen, err := workload.NewMemory("SPEC2006", 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Default()
	cfg.Geometry.MacroPageSize = 64 * KiB
	cfg.Migration = &core.Options{Design: core.DesignLive, SwapInterval: 1000}
	cfg.MaxRecords = uint64(b.N)
	b.ResetTimer()
	if _, err := sim.Run(trace.NewLimit(gen, uint64(b.N)), cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBatchReplay is EndToEndSimulation over the packed replay path
// the experiment drivers use: the trace is materialized into the packed
// columnar form untimed, then the simulator replays it batch-at-a-time.
// Compare against BenchmarkEndToEndSimulation to see what replacing the
// generator with the chunk decoder buys on the record path.
func BenchmarkBatchReplay(b *testing.B) {
	gen, err := workload.NewMemory("SPEC2006", 1)
	if err != nil {
		b.Fatal(err)
	}
	p, err := trace.Pack(gen, uint64(b.N))
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Default()
	cfg.Geometry.MacroPageSize = 64 * KiB
	cfg.Migration = &core.Options{Design: core.DesignLive, SwapInterval: 1000}
	cfg.MaxRecords = uint64(b.N)
	b.ResetTimer()
	if _, err := sim.Run(trace.NewPackedSource(p), cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEndToEndSharded replays one packed pgbench trace of b.N records
// through sim.Run at one, two and four channels, in the configuration of
// the benchmark's sharded workload (alloy-pred cache, 64 KiB pages, no
// migration). Packing is untimed. The c2 and c4 records/s over c1's is the
// sharded runner's speedup over one channel.
func BenchmarkEndToEndSharded(b *testing.B) {
	for _, channels := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "c1", 2: "c2", 4: "c4"}[channels], func(b *testing.B) {
			gen, err := workload.NewMemory("pgbench", 1)
			if err != nil {
				b.Fatal(err)
			}
			p, err := trace.Pack(gen, uint64(b.N))
			if err != nil {
				b.Fatal(err)
			}
			cfg := sim.Default()
			cfg.Geometry.MacroPageSize = 64 * KiB
			cfg.Scheme = scheme.Spec{Kind: scheme.KindAlloy, Predictor: true}
			cfg.Channels = channels
			cfg.MaxRecords = uint64(b.N)
			b.ResetTimer()
			if _, err := sim.Run(trace.NewPackedSource(p), cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkPackedEncode packs b.N generator records; the reported
// compression-x metric is the in-memory []Record footprint over the packed
// bytes (the tentpole's >= 4x size target).
func BenchmarkPackedEncode(b *testing.B) {
	gen, err := workload.NewMemory("SPEC2006", 1)
	if err != nil {
		b.Fatal(err)
	}
	recs, err := trace.Collect(trace.NewLimit(gen, uint64(b.N)), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	p := trace.PackRecords(recs)
	b.StopTimer()
	b.ReportMetric(float64(len(recs)*24)/float64(p.EncodedBytes()), "compression-x")
}

// BenchmarkPackedDecode measures the chunk decoder alone: b.N records
// streamed out of a packed trace through NextBatch into a reused batch.
// This is the per-record cost every sweep cell pays to replay a trace. The
// chunk leg reads chunk-sized batches, as the run loop does, so each chunk
// decodes straight into the batch; the batch1000 leg reads 1,000 records
// at a time, which go through the source's buffer and are copied.
func BenchmarkPackedDecode(b *testing.B) {
	gen, err := workload.NewMemory("SPEC2006", 1)
	if err != nil {
		b.Fatal(err)
	}
	const records = 1 << 20
	p, err := trace.Pack(gen, records)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("chunk", func(b *testing.B) { benchPackedDecode(b, p, trace.PackedChunkRecords) })
	b.Run("batch1000", func(b *testing.B) { benchPackedDecode(b, p, 1000) })
}

func benchPackedDecode(b *testing.B, p *trace.Packed, size int) {
	src := trace.NewPackedSource(p)
	var batch trace.Batch
	batch.Resize(size)
	b.ResetTimer()
	for n := 0; n < b.N; {
		k, err := src.NextBatch(&batch)
		n += k
		if err != nil { // io.EOF: rewind and keep streaming
			src.Reset()
		}
	}
}

// benchTemporal is the end-to-end access benchmark with the temporal
// observability layer at a given setting; compare Off against On with
// benchstat. Off must stay within 5% of a build without the layer — the
// disabled path is one nil check per touch point.
func benchTemporal(b *testing.B, spans, series int) {
	gen, err := workload.NewMemory("SPEC2006", 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Default()
	cfg.Geometry.MacroPageSize = 64 * KiB
	cfg.Migration = &core.Options{Design: core.DesignLive, SwapInterval: 1000}
	cfg.MaxRecords = uint64(b.N)
	cfg.SpanTrace = spans
	cfg.EpochSeries = series
	b.ResetTimer()
	if _, err := sim.Run(trace.NewLimit(gen, uint64(b.N)), cfg); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTemporalObservabilityOff(b *testing.B) { benchTemporal(b, 0, 0) }
func BenchmarkTemporalObservabilityOn(b *testing.B)  { benchTemporal(b, 1<<16, 1<<12) }

// benchCheckpoint is the end-to-end access benchmark with checkpointing at
// a given cadence (0 = off); compare Off against On with benchstat to bound
// what serializing the full run state costs. The encoded snapshots are
// discarded, so the number isolates serialization, not I/O.
func benchCheckpoint(b *testing.B, every uint64) {
	gen, err := workload.NewMemory("SPEC2006", 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Default()
	cfg.Geometry.MacroPageSize = 64 * KiB
	cfg.Migration = &core.Options{Design: core.DesignLive, SwapInterval: 1000}
	cfg.MaxRecords = uint64(b.N)
	if every > 0 {
		cfg.CheckpointEvery = every
		var bytes uint64
		cfg.CheckpointSink = func(data []byte, _ uint64) error {
			bytes += uint64(len(data))
			return nil
		}
		defer func() {
			if n := uint64(b.N) / every; n > 0 {
				b.ReportMetric(float64(bytes)/float64(n), "snapshot-bytes")
			}
		}()
	}
	b.ResetTimer()
	if _, err := sim.Run(trace.NewLimit(gen, uint64(b.N)), cfg); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkCheckpointOff(b *testing.B) { benchCheckpoint(b, 0) }
func BenchmarkCheckpointOn(b *testing.B)  { benchCheckpoint(b, 10_000) }

func BenchmarkAblationVictimPolicy(b *testing.B) {
	// Clock pseudo-LRU (paper) vs FIFO rotation vs random victim.
	for i := 0; i < b.N; i++ {
		clock := ablationRun(b, func(*sim.Config) {})
		fifo := ablationRun(b, func(c *sim.Config) { c.Migration.Victim = core.VictimFIFO })
		random := ablationRun(b, func(c *sim.Config) { c.Migration.Victim = core.VictimRandom })
		b.ReportMetric(fifo-clock, "fifo-penalty-cycles")
		b.ReportMetric(random-clock, "random-penalty-cycles")
	}
}

func BenchmarkAblationRefresh(b *testing.B) {
	// DDR3 auto-refresh on vs off: the bandwidth tax the paper's
	// evaluation leaves unmodeled.
	for i := 0; i < b.N; i++ {
		off := ablationRun(b, func(*sim.Config) {})
		on := ablationRun(b, func(c *sim.Config) {
			c.OffTiming = iconfig.WithRefresh(c.OffTiming)
			c.OnTiming = iconfig.WithRefresh(c.OnTiming)
		})
		b.ReportMetric(on-off, "refresh-tax-cycles")
	}
}
