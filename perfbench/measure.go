package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"heteromem/internal/memctrl"
	"heteromem/internal/sim"
	"heteromem/internal/stats"
	"heteromem/internal/trace"
	synth "heteromem/internal/workload"
)

// buildTrace draws the workload's records from its generator and packs them
// into HMPK: the trace half of set-up.
func buildTrace(w workload, seed int64) (*trace.Packed, error) {
	gen, err := synth.NewMemory(w.trace, seed)
	if err != nil {
		return nil, err
	}
	p, err := trace.Pack(gen, w.records)
	if err != nil {
		return nil, fmt.Errorf("pack %s: %w", w.trace, err)
	}
	if p.NumRecords() != w.records {
		return nil, fmt.Errorf("pack %s: got %d records, want %d", w.trace, p.NumRecords(), w.records)
	}
	return p, nil
}

// clockedSource wraps the packed replay so the benchmark can see sim.Run
// from outside. The first NextBatch call marks the end of construction and
// the start of the timed phase, and every call marks a segment boundary:
// sim.Run cuts its batches at fixed record counts, so the k-th segment
// covers the same records in every replay of a trace. When decode is set,
// each call is also timed on its own (its self time: the call contains
// nothing but the decoder).
type clockedSource struct {
	src    *trace.PackedSource
	decode bool

	marks      []time.Time // one per NextBatch call, allocated before the run
	firstAlloc uint64
	decodeTime time.Duration
}

func (s *clockedSource) Next() (trace.Record, error) { return s.src.Next() }

func (s *clockedSource) NextBatch(b *trace.Batch) (int, error) {
	if len(s.marks) == 0 {
		s.firstAlloc = heapAllocBytes()
	}
	t := time.Now()
	s.marks = append(s.marks, t)
	if !s.decode {
		return s.src.NextBatch(b)
	}
	n, err := s.src.NextBatch(b)
	s.decodeTime += time.Since(t)
	return n, err
}

// runSample is what one sim.Run looks like from outside.
type runSample struct {
	construct time.Duration   // sim.Run entry to the first NextBatch
	timed     time.Duration   // first NextBatch to sim.Run's return
	segments  []time.Duration // timed, split at every NextBatch call
	decode    time.Duration   // NextBatch self time (decode runs only)
	alloc     uint64          // heap bytes allocated in the timed phase
	gcCycles  uint64          // GC cycles completed during the whole call
	gcPause   time.Duration   // stop-the-world pause during the whole call
	res       sim.Result
}

// settle collects the heap and returns its free pages to the OS, so every
// replay starts from the same heap, its controller's pages are faulted in
// fresh as a single run's would be, and the resident peak is what the
// replay holds, not what the runtime kept from earlier ones.
func settle() { debug.FreeOSMemory() }

// awaitGoroutines waits until no more than n goroutines are left. The
// sharded runner closes its workers when sim.Run returns but does not wait
// for them, and a worker still on its stack keeps its shard's controller
// alive; waiting keeps two replays' controllers from being resident at once.
func awaitGoroutines(n int) {
	for i := 0; runtime.NumGoroutine() > n && i < 1000; i++ {
		time.Sleep(100 * time.Microsecond)
	}
}

// timedRun replays p through sim.Run once, from a settled heap.
func timedRun(p *trace.Packed, cfg sim.Config, decode bool) (runSample, error) {
	settle()
	// sim.Run reads at most one batch per cancel stride of 4096 records,
	// plus one more at each boundary it cuts (warmup, end of trace).
	calls := p.NumRecords()/4096 + 8
	src := &clockedSource{src: trace.NewPackedSource(p), decode: decode, marks: make([]time.Time, 0, calls)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	goroutines := runtime.NumGoroutine()
	entry := time.Now()
	res, err := sim.Run(src, cfg)
	end := time.Now()
	alloc := heapAllocBytes() - src.firstAlloc
	awaitGoroutines(goroutines)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return runSample{}, err
	}
	if len(src.marks) == 0 {
		return runSample{}, fmt.Errorf("sim.Run returned without reading the trace")
	}
	marks := append(src.marks, end)
	segments := make([]time.Duration, len(marks)-1)
	for k := range segments {
		segments[k] = marks[k+1].Sub(marks[k])
	}
	return runSample{
		construct: marks[0].Sub(entry),
		timed:     end.Sub(marks[0]),
		segments:  segments,
		decode:    src.decodeTime,
		alloc:     alloc,
		gcCycles:  uint64(m1.NumGC - m0.NumGC),
		gcPause:   time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		res:       res,
	}, nil
}

// lowerEnvelope folds one replay's segments into env, keeping the fastest
// time seen for each segment.
func lowerEnvelope(env *[]time.Duration, segments []time.Duration) error {
	if *env == nil {
		*env = append([]time.Duration(nil), segments...)
		return nil
	}
	if len(segments) != len(*env) {
		return fmt.Errorf("replay read %d batches, an earlier replay %d", len(segments), len(*env))
	}
	for k, d := range segments {
		(*env)[k] = min((*env)[k], d)
	}
	return nil
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the cumulative heap allocation count. runtime/metrics
// reads it without stopping the world, so it can sit inside the timed phase.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// checkCounts checks the post-warmup access count of a serial replay. The
// controller counts an access when it completes, and statistics reset at
// the warmup edge, so the count is every record minus those completed by
// the edge: records - warmup plus the accesses still in flight there.
// Run-loop errors and Hub.Err() surface as the operation's error.
func checkCounts(w workload, count, warmDone uint64) error {
	if warmDone > w.warmup {
		return fmt.Errorf("%d accesses completed within the %d-record warmup", warmDone, w.warmup)
	}
	if want := w.records - warmDone; count != want {
		return fmt.Errorf("report counts %d accesses, want %d (%d records, %d completed in warmup)", count, want, w.records, warmDone)
	}
	return nil
}

// resultDigest hashes every simulated field of a run: the report's latency
// accumulators, routing shares, queue means, migration and scheme counters,
// record count and last cycle. Floats print in Go's shortest exact form, so
// two digests match only when the simulated output is bit-identical.
func resultDigest(res sim.Result) string {
	h := sha256.New()
	r := res.Report
	for _, s := range []stats.LatencyStat{r.All, r.On, r.Off, r.DRAMAll, r.DRAMOn, r.DRAMOff} {
		fmt.Fprintf(h, "%d %v %d %d %v\n", s.Count(), s.Sum(), s.Min(), s.Max(), s.StdDev())
	}
	fmt.Fprintf(h, "%d %v %v %v %v\n", r.P95, r.MeanCoreLat, r.OnShare, r.OnQueueMean, r.OffQueueMean)
	fmt.Fprintf(h, "%+v\n", r.Migration)
	if r.Scheme != nil {
		fmt.Fprintf(h, "%+v\n", *r.Scheme)
	}
	if r.Faults != nil {
		fmt.Fprintf(h, "%+v\n", *r.Faults)
	}
	fmt.Fprintf(h, "%d %d %v %v\n", res.Records, res.LastCycle, res.MeanLatency, res.MeanDRAMLatency)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// reportDigest is resultDigest over a bare report, for the serial replays
// of the ladder that drive a Hub directly.
func reportDigest(r memctrl.Report, records uint64, last int64) string {
	return resultDigest(sim.Result{
		Report: r, Records: records, LastCycle: last,
		MeanLatency: r.All.Mean(), MeanDRAMLatency: r.DRAMAll.Mean(),
	})
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastest is the smallest sample: for host times, the one least disturbed
// by other tenants of a shared machine.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}
