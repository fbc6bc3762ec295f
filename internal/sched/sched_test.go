package sched

import (
	"testing"

	"heteromem/internal/config"
	"heteromem/internal/dram"
)

func newSched(t *testing.T, channels int, cfg Config, onDone func(*Request), onBulk func(*BulkJob)) *Scheduler {
	t.Helper()
	dev, err := dram.New(dram.Geometry{
		Channels: channels, BanksPerCh: 8, RowBytes: 8192, BurstBytes: 64,
	}, config.OffPackageTiming())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(dev, cfg, onDone, onBulk)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSingleRequestLatency(t *testing.T) {
	var done []*Request
	s := newSched(t, 1, Config{}, func(r *Request) { done = append(done, r) }, nil)
	r := &Request{ID: 1, Arrive: 100, Addr: 0}
	s.Submit(r, 100)
	s.Advance(10000)
	if len(done) != 1 {
		t.Fatalf("%d requests completed, want 1", len(done))
	}
	tm := s.Device().Timing()
	if r.Done != 100+tm.TRCD+tm.TCL+tm.TBurst {
		t.Fatalf("done = %d", r.Done)
	}
	if r.Latency() != tm.TRCD+tm.TCL+tm.TBurst {
		t.Fatalf("latency = %d", r.Latency())
	}
}

func TestDecisionsWaitForClock(t *testing.T) {
	var done int
	s := newSched(t, 1, Config{}, func(*Request) { done++ }, nil)
	s.Submit(&Request{Arrive: 50}, 50)
	if done != 0 {
		// The decision at cycle 50 can only commit once the clock reaches
		// it — it did (now=50), so service should have happened.
		t.Log("request served at submit time (expected)")
	}
	s.Advance(50)
	if done != 1 {
		t.Fatalf("request not served by its arrival time, done=%d", done)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	var order []uint64
	s := newSched(t, 1, Config{}, func(r *Request) { order = append(order, r.ID) }, nil)
	// Open a row; the next command-issue slot lands after both later
	// arrivals, so IDs 2 and 3 queue up and contend at one decision point.
	s.Submit(&Request{ID: 1, Arrive: 0, Addr: 0}, 0)
	// ID 2 misses (different row), ID 3 hits the open row; both have
	// arrived by the decision time, so FR-FCFS must pick ID 3 first.
	s.Submit(&Request{ID: 2, Arrive: 10, Addr: 64 * 1024}, 10)
	s.Submit(&Request{ID: 3, Arrive: 11, Addr: 64}, 11)
	s.Flush()
	if len(order) != 3 {
		t.Fatalf("served %d, want 3", len(order))
	}
	if order[1] != 3 || order[2] != 2 {
		t.Fatalf("service order = %v, want [1 3 2] (row hit first)", order)
	}
}

func TestFCFSWithinSameRow(t *testing.T) {
	var order []uint64
	s := newSched(t, 1, Config{}, func(r *Request) { order = append(order, r.ID) }, nil)
	s.Submit(&Request{ID: 1, Arrive: 10, Addr: 0}, 10)
	s.Submit(&Request{ID: 2, Arrive: 11, Addr: 64}, 11)
	s.Submit(&Request{ID: 3, Arrive: 12, Addr: 128}, 12)
	s.Flush()
	for i, want := range []uint64{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("order = %v, want FCFS [1 2 3]", order)
		}
	}
}

func TestBulkRunsOnIdleChannel(t *testing.T) {
	var bulkDone []*BulkJob
	s := newSched(t, 1, Config{}, nil, func(j *BulkJob) { bulkDone = append(bulkDone, j) })
	j := &BulkJob{Tag: 7, Duration: 1000, Earliest: 0}
	s.SubmitBulk(0, j, 0)
	s.Advance(500)
	if len(bulkDone) != 0 {
		t.Fatal("job finished before enough idle time elapsed")
	}
	s.Advance(2000)
	if len(bulkDone) != 1 || bulkDone[0].Tag != 7 {
		t.Fatalf("bulk job not completed: %v", bulkDone)
	}
	if j.Done > 1000 {
		t.Fatalf("idle channel: job should finish at 1000, got %d", j.Done)
	}
}

func TestBulkDoesNotDelayForeground(t *testing.T) {
	var reqDone *Request
	s := newSched(t, 1, Config{}, func(r *Request) { reqDone = r }, nil)
	// A long bulk job is pending, then a request arrives. The request's
	// queuing delay must stay bounded by the aging quantum, not the whole
	// job.
	s.SubmitBulk(0, &BulkJob{Duration: 100000, Earliest: 0}, 0)
	r := &Request{ID: 1, Arrive: 50, Addr: 0}
	s.Submit(r, 50)
	s.Flush()
	if reqDone == nil {
		t.Fatal("request never completed")
	}
	// Bus was running the bulk job since cycle 0; the request waits at
	// most the rest of... with preemption the wait is one decision point.
	if r.Start-r.Arrive > DefaultStealQuantum+100 {
		t.Fatalf("foreground delayed %d cycles by background job", r.Start-r.Arrive)
	}
}

func TestBulkStarvationBackstop(t *testing.T) {
	// Saturate the channel with foreground row hits and verify the bulk
	// job still completes (aging quantum guarantees progress).
	var bulkDone bool
	s := newSched(t, 1, Config{AgingLimit: 1000, StealQuantum: 200},
		nil, func(*BulkJob) { bulkDone = true })
	s.SubmitBulk(0, &BulkJob{Duration: 2000, Earliest: 0}, 0)
	now := int64(0)
	tm := s.Device().Timing()
	for i := 0; i < 3000; i++ {
		now += tm.TBurst // arrivals at exactly bus rate: zero natural idle
		s.Submit(&Request{ID: uint64(i), Arrive: now, Addr: uint64(i%128) * 64}, now)
	}
	if !bulkDone {
		t.Fatal("bulk job starved despite aging backstop")
	}
}

func TestBulkChainsByEarliest(t *testing.T) {
	var doneAt []int64
	s := newSched(t, 1, Config{}, nil, func(j *BulkJob) { doneAt = append(doneAt, j.Done) })
	s.SubmitBulk(0, &BulkJob{Duration: 100, Earliest: 0}, 0)
	s.SubmitBulk(0, &BulkJob{Duration: 100, Earliest: 5000}, 0)
	s.Advance(10000)
	if len(doneAt) != 2 {
		t.Fatalf("completed %d jobs, want 2", len(doneAt))
	}
	if doneAt[0] != 100 {
		t.Fatalf("first job done at %d, want 100", doneAt[0])
	}
	if doneAt[1] != 5100 {
		t.Fatalf("second job done at %d, want 5100 (respects Earliest)", doneAt[1])
	}
}

func TestFlushDrainsEverything(t *testing.T) {
	var reqs, bulks int
	s := newSched(t, 2, Config{}, func(*Request) { reqs++ }, func(*BulkJob) { bulks++ })
	for i := 0; i < 50; i++ {
		s.Submit(&Request{ID: uint64(i), Arrive: int64(i), Addr: uint64(i) * 64}, int64(i))
	}
	s.SubmitBulk(0, &BulkJob{Duration: 10000, Earliest: 0}, 0)
	s.SubmitBulk(1, &BulkJob{Duration: 10000, Earliest: 0}, 0)
	s.Flush()
	if reqs != 50 || bulks != 2 {
		t.Fatalf("flush left work behind: reqs=%d bulks=%d", reqs, bulks)
	}
	if s.QueueLen() != 0 || s.BulkBacklog() != 0 {
		t.Fatal("queues not empty after flush")
	}
}

func TestSchedulerStats(t *testing.T) {
	s := newSched(t, 1, Config{}, nil, nil)
	for i := 0; i < 10; i++ {
		s.Submit(&Request{ID: uint64(i), Arrive: int64(i), Addr: 0}, int64(i))
	}
	s.Flush()
	served, _, queued := s.Stats()
	if served != 10 {
		t.Fatalf("served = %d", served)
	}
	if queued < 0 {
		t.Fatalf("summed queue delay = %d", queued)
	}
}

func TestNilDeviceRejected(t *testing.T) {
	if _, err := New(nil, Config{}, nil, nil); err == nil {
		t.Fatal("nil device accepted")
	}
}

func TestNewRejectsMoreThan64Channels(t *testing.T) {
	dev, err := dram.New(dram.Geometry{
		Channels: 128, BanksPerCh: 8, RowBytes: 8192, BurstBytes: 64,
	}, config.OffPackageTiming())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(dev, Config{}, nil, nil); err == nil {
		t.Fatal("128-channel device accepted; the busy mask has 64 bits")
	}
}

func TestIdleAfterBulkCompletes(t *testing.T) {
	var reqs, bulks int
	s := newSched(t, 2, Config{}, func(*Request) { reqs++ }, func(*BulkJob) { bulks++ })
	s.SubmitBulk(1, &BulkJob{Duration: 200, Earliest: 0}, 0)
	s.Submit(&Request{ID: 1, Arrive: 10, Addr: 0}, 10)
	s.Advance(100000)
	if reqs != 1 || bulks != 1 {
		t.Fatalf("completed %d requests and %d bulk jobs, want 1 and 1", reqs, bulks)
	}
	if s.busy != 0 {
		t.Fatalf("busy mask %#b after every queue drained, want 0", s.busy)
	}
}

// TestRetryReinsertsInArrivalOrder: a faulted request re-arrives after its
// backoff, later than requests submitted after it, and must be queued
// between them by its new arrival, not appended behind them.
func TestRetryReinsertsInArrivalOrder(t *testing.T) {
	var order []uint64
	s := newSched(t, 1, Config{FCFSOnly: true}, func(r *Request) { order = append(order, r.ID) }, nil)
	bursts := 0
	s.Device().SetFaultHook(func(dram.Location, bool, int64) bool {
		bursts++
		return bursts == 2 // the first attempt of request 1
	})
	const backoff = 50
	s.SetFaultHandler(func(*Request) (bool, int64) { return true, backoff })

	reqs := []*Request{
		{ID: 0, Arrive: 0, Addr: 0},
		{ID: 1, Arrive: 1, Addr: 64},
		{ID: 2, Arrive: 2, Addr: 128},
		{ID: 3, Arrive: 3, Addr: 192},
		{ID: 4, Arrive: 1000, Addr: 256},
	}
	for _, r := range reqs {
		s.Submit(r, r.Arrive)
	}
	s.Flush()

	if reqs[1].Attempts != 1 {
		t.Fatalf("request 1 made %d faulted attempts, want 1", reqs[1].Attempts)
	}
	if a := reqs[1].Arrive; a <= reqs[3].Arrive || a >= reqs[4].Arrive {
		t.Fatalf("retry re-arrived at %d, want between %d and %d", a, reqs[3].Arrive, reqs[4].Arrive)
	}
	want := []uint64{0, 2, 3, 1, 4}
	if len(order) != len(want) {
		t.Fatalf("service order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v (arrival order after the retry)", order, want)
		}
	}
	for i := 1; i < len(order); i++ {
		if prev, cur := reqs[order[i-1]], reqs[order[i]]; cur.Start < prev.Start {
			t.Fatalf("request %d started at %d, before request %d at %d", cur.ID, cur.Start, prev.ID, prev.Start)
		}
	}
}

// TestAdvanceDrainsChannelsQueuedByCallbacks: a completion callback that
// queues work on a higher channel during Advance gets that channel drained
// in the same call, as an ascending scan of every channel would.
func TestAdvanceDrainsChannelsQueuedByCallbacks(t *testing.T) {
	var s *Scheduler
	follow := &BulkJob{Tag: 2, Duration: 100}
	s = newSched(t, 4, Config{}, nil, func(j *BulkJob) {
		if j.Tag == 1 {
			follow.Earliest = j.Done
			s.SubmitBulk(3, follow, j.Done)
		}
	})
	first := &BulkJob{Tag: 1, Duration: 100}
	s.SubmitBulk(0, first, 0)
	s.Advance(1000)
	if first.Done != 100 {
		t.Fatalf("first job done at %d, want 100", first.Done)
	}
	if follow.Done != 200 {
		t.Fatalf("job queued on channel 3 by the callback done at %d, want 200 in the same Advance", follow.Done)
	}
	if s.busy != 0 {
		t.Fatalf("busy mask %#b after both jobs completed, want 0", s.busy)
	}
}

// TestSchedulerSteadyStateZeroAlloc drives recycled requests interleaved
// with bulk jobs, the way the memory controller does, and requires the
// warmed-up scheduler to allocate nothing.
func TestSchedulerSteadyStateZeroAlloc(t *testing.T) {
	var freeReqs []*Request
	var freeJobs []*BulkJob
	s := newSched(t, 4, Config{},
		func(r *Request) { freeReqs = append(freeReqs, r) },
		func(j *BulkJob) { freeJobs = append(freeJobs, j) })
	var i int64
	round := func() {
		for k := 0; k < 64; k++ {
			i++
			now := i * 25
			var r *Request
			if n := len(freeReqs); n > 0 {
				r, freeReqs = freeReqs[n-1], freeReqs[:n-1]
				*r = Request{}
			} else {
				r = new(Request)
			}
			r.ID, r.Arrive, r.Addr = uint64(i), now, uint64(i)*64%(1<<30)
			s.Submit(r, now)
			if k%8 == 0 {
				var j *BulkJob
				if n := len(freeJobs); n > 0 {
					j, freeJobs = freeJobs[n-1], freeJobs[:n-1]
					*j = BulkJob{}
				} else {
					j = new(BulkJob)
				}
				j.Duration, j.Earliest = 64, now
				s.SubmitBulk(int(i%4), j, now)
			}
			s.Advance(now)
		}
	}
	for w := 0; w < 100; w++ {
		round() // grow the queues and freelists to their steady size
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("steady-state scheduling allocated %.1f times per round, want 0", allocs)
	}
	if _, bulks, _ := s.Stats(); bulks == 0 {
		t.Fatal("no bulk job completed; the bulk leg was not exercised")
	}
}

// TestBulkBurstsCountedOncePerJob: a background copy that an idle channel
// runs in many small pieces counts the bursts of the whole job once, when
// it completes, exactly as the same transfer reserved whole does. The job
// is one 4 KiB off-package copy leg: 64 bursts plus half a row activation,
// 1,237 cycles, which count as 65 bursts.
func TestBulkBurstsCountedOncePerJob(t *testing.T) {
	whole := newSched(t, 1, Config{}, nil, nil)
	tm := whole.Device().Timing()
	leg := 64*tm.TBurst + tm.TRCD*4096/8192
	whole.Device().ReserveBus(0, 0, leg)
	_, _, _, want := whole.Device().Stats()

	var done *BulkJob
	s := newSched(t, 1, Config{}, nil, func(j *BulkJob) { done = j })
	s.SubmitBulk(0, &BulkJob{Duration: leg}, 0)
	for now := int64(10); done == nil; now += 10 {
		s.Advance(now)
	}
	if done.Done != leg {
		t.Fatalf("job done at %d, want %d", done.Done, leg)
	}
	if _, _, _, got := s.Device().Stats(); got != want || want != 65 {
		t.Fatalf("leg advanced in 10-cycle steps counted %d bursts, reserved whole %d; want 65 each", got, want)
	}
}
