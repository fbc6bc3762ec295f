// Command perfbench is the simulator's benchmark: it replays a packed trace
// of one named workload through sim.Run for a fixed wall-clock budget and
// prints host-throughput and simulated metrics as one JSON line. With
// -trace 1 it instead times each layer from outside (see ladder.go).
//
//	go build -o perfbench . && ./perfbench --workload spec-live --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object; the line before it
// records the run environment. Diagnostics go to standard error.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"heteromem/internal/memctrl"
	"heteromem/internal/trace"
)

// metric is one named value in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations (sim.Run calls and serial replays) and their
// output-check failures. Each trace's first serial replay is its reference,
// which every later operation on that trace must reproduce bit for bit.
type tally struct {
	attempted, failed int
	refs              []reference // one per trace of the run
}

type reference struct {
	count  uint64 // post-warmup access count
	digest string // simulated-output digest
	report memctrl.Report
}

func newTally(traces int) *tally { return &tally{refs: make([]reference, traces)} }

// fail records one failed operation.
func (t *tally) fail(w workload, err error) {
	t.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s operation %d failed: %v\n", w.name, t.attempted, err)
}

// reference checks a serial replay of trace i. The first one becomes the
// trace's reference; for the default seed its digest must equal the pinned
// one.
func (t *tally) reference(w workload, seed int64, i int, s serialSample, err error) bool {
	t.attempted++
	if err == nil {
		err = checkCounts(w, s.rep.All.Count(), s.warmDone)
	}
	if err == nil {
		d := reportDigest(s.rep, w.records, s.last)
		ref := &t.refs[i]
		switch {
		case ref.digest == "":
			*ref = reference{count: s.rep.All.Count(), digest: d, report: s.rep}
			if seed == defaultSeed && w.digests != nil && d != w.digests[i] {
				// The reference stands, so the run still measures, but output
				// that differs from the pinned one fails the run.
				t.fail(w, fmt.Errorf("trace %d digest %s, pinned %s", i, d, w.digests[i]))
			}
		case d != ref.digest:
			err = fmt.Errorf("trace %d serial replay digest %s differs from the reference %s", i, d, ref.digest)
		}
	}
	if err != nil {
		t.fail(w, err)
		return false
	}
	return true
}

// check applies the output check to one sim.Run of trace i: every record
// read, and the reference's post-warmup count and digest reproduced.
func (t *tally) check(w workload, i int, s runSample, err error) bool {
	t.attempted++
	ref := t.refs[i]
	if err == nil && s.res.Records != w.records {
		err = fmt.Errorf("read %d records, want %d", s.res.Records, w.records)
	}
	if err == nil && s.res.Report.All.Count() != ref.count {
		err = fmt.Errorf("report counts %d accesses, the reference %d", s.res.Report.All.Count(), ref.count)
	}
	if err == nil {
		if d := resultDigest(s.res); d != ref.digest {
			err = fmt.Errorf("trace %d digest %s differs from the reference %s", i, d, ref.digest)
		}
	}
	if err != nil {
		t.fail(w, err)
		return false
	}
	return true
}

func (t *tally) result(m map[string]metric) result {
	return result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   m,
	}
}

// minSamples is the fewest rounds (one replay of every trace, or one ladder
// round) a run makes, however short its budget.
const minSamples = 2

// endToEnd measures the user-visible metrics: set-up, then rounds of timed
// sim.Run calls over the run's packed traces until the budget is spent.
func endToEnd(w workload, seed int64, budget time.Duration) (result, error) {
	cfg := w.runConfig()
	seeds := traceSeeds(seed)
	traces := make([]*trace.Packed, len(seeds))
	var builds []float64
	build := func(i int) error {
		traces[i] = nil
		settle()
		start := time.Now()
		p, err := buildTrace(w, seeds[i])
		builds = append(builds, time.Since(start).Seconds())
		traces[i] = p
		return err
	}
	for i := range traces {
		if err := build(i); err != nil {
			return result{}, err
		}
	}

	t := newTally(len(traces))
	// The references: serial replays, untimed. They also page in the traces.
	for i, p := range traces {
		ref, err := serialReplay(w, p, cfg)
		if !t.reference(w, seed, i, ref, err) {
			return t.result(map[string]metric{}), nil
		}
	}
	// Throughput counts each trace's lower envelope: segment by segment (a
	// segment is one batch read plus its simulation), the fastest time any
	// replay of the trace took. On a shared host, other tenants slow the
	// machine in bursts from milliseconds to minutes. A burst only ever adds
	// time, and one that covers a whole replay (or a whole run) is common,
	// but one that covers the same segment in every replay is not. README.md
	// gives the run-to-run spreads of this and the alternatives.
	var records, allocated uint64
	var replays int
	var construct []float64
	envelopes := make([][]time.Duration, len(traces))
	start := time.Now()
	for round := 0; round < minSamples || time.Since(start) < budget; round++ {
		// One trace is built again each round, so the set-up samples spread
		// over the budget like the replays do and see the same host load.
		if err := build(round % len(traces)); err != nil {
			return result{}, err
		}
		for i, p := range traces {
			s, err := timedRun(p, cfg, false)
			if !t.check(w, i, s, err) {
				continue
			}
			if err := lowerEnvelope(&envelopes[i], s.segments); err != nil {
				return result{}, fmt.Errorf("trace %d: %w", i, err)
			}
			replays++
			records += w.records
			allocated += s.alloc
			construct = append(construct, s.construct.Seconds())
		}
	}
	var best time.Duration
	for _, env := range envelopes {
		if env == nil { // a trace none of whose replays passed the check
			return t.result(map[string]metric{}), nil
		}
		for _, d := range env {
			best += d
		}
	}
	// The simulated means pool every trace's post-warmup accesses.
	var n uint64
	var lat, dram float64
	for _, ref := range t.refs {
		n += ref.report.All.Count()
		lat += ref.report.All.Sum()
		dram += ref.report.DRAMAll.Sum()
	}
	m := map[string]metric{
		"records_per_s":                {float64(w.records) * float64(len(traces)) / best.Seconds(), "1/s"},
		"setup_s":                      {median(builds) + median(construct), "s"},
		"peak_rss_mb":                  {peakRSSMiB(), "MiB"},
		"alloc_bytes_per_record":       {float64(allocated) / float64(records), "B"},
		"sim_mean_latency_cycles":      {lat / float64(n), "cycles"},
		"sim_mean_dram_latency_cycles": {dram / float64(n), "cycles"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d timed replays of %d traces\n", w.name, seed, replays, len(traces))
	return t.result(m), nil
}

// peakRSSMiB is the process's resident high-water mark (VmHWM).
func peakRSSMiB() float64 {
	kb, _ := procField("/proc/self/status", "VmHWM:")
	v, _ := strconv.ParseFloat(strings.TrimSuffix(kb, " kB"), 64)
	return v / 1024
}

// procField returns the trimmed value after the first line starting with
// key in a /proc text file.
func procField(path, key string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key); ok {
			return strings.TrimSpace(v), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New(key + " not found in " + path)
}

// environment is recorded with every run so numbers from different hosts
// are not compared by mistake.
func environment(workload string, seed int64, traced bool) map[string]any {
	cpu, err := procField("/proc/cpuinfo", "model name")
	if err != nil {
		cpu = "unknown"
	}
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        strings.TrimSpace(strings.TrimPrefix(cpu, ":")),
	}
}

func main() {
	name := flag.String("workload", "", "workload to run (spec-live, ft-n1-4m, pgbench-alloy-c2)")
	seed := flag.Int64("seed", defaultSeed, "trace generator seed")
	secs := flag.Int("seconds", 10, "measurement budget in seconds")
	traced := flag.Int("trace", 0, "1 times each layer (per-layer metrics); 0 measures end to end")
	flag.Parse()
	if err := run(*name, *seed, *secs, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, secs, traced int) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if secs < 1 {
		return fmt.Errorf("--seconds %d: must be at least 1", secs)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace %d: must be 0 or 1", traced)
	}
	budget := time.Duration(secs) * time.Second
	var res result
	if traced == 1 {
		res, err = ladder(w, seed, budget)
	} else {
		res, err = endToEnd(w, seed, budget)
	}
	if err != nil {
		return err
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"env": environment(name, seed, traced == 1)}); err != nil {
		return err
	}
	return out.Encode(res)
}
