// Package sched implements the per-region transaction scheduler of the
// heterogeneity-aware memory controller: FR-FCFS (first-ready,
// first-come-first-served — Rixner et al., ISCA'00, the policy the paper's
// trace simulation assumes) over a dram.Device, with a background priority
// class for migration copy traffic.
//
// Background bulk transfers steal idle bus cycles: they are preemptible at
// burst granularity, so they fill the gaps between foreground requests
// without delaying them. Under a saturated channel an aging backstop grants
// the head bulk job one small quantum per aging period so copies always
// make forward progress (a real copy engine is guaranteed some minimum
// service rate too).
//
// Scheduling decisions commit only once every request that could
// participate has arrived: because trace arrivals are monotonic, a decision
// at bus-free cycle f is safe when the global clock has reached f. Until
// then requests wait in the pending queue, which is exactly where queuing
// delay comes from.
//
// Each channel is drained only at its next event. Every drain records the
// channel's wake, the earliest clock at which draining it again could
// change anything, and Advance skips a channel until its wake. An idle
// channel's background job is the one thing that moves between events: the
// progress the clock owes it is applied in one reservation (settled) when
// something next needs the channel's bus, which reserves exactly what a
// drain at every clock would have.
//
// A request submitted to a channel with nothing queued, whose decision time
// has already come, is served at Submit without entering the queue: it is
// the one pick a drain would make.
package sched

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"heteromem/internal/dram"
	"heteromem/internal/obs"
)

// Request is one memory transaction submitted to a region scheduler.
type Request struct {
	ID     uint64
	Arrive int64  // cycle the request reaches the controller
	Addr   uint64 // region-relative machine address
	Write  bool

	// Outputs, valid once the completion callback fires.
	Start   int64 // cycle service began (decision time)
	Done    int64 // cycle the data burst completed
	CoreLat int64 // DRAM-core-only portion (row state + CAS + burst)

	// Attempts counts faulted service attempts so far; on a retry the
	// request re-arrives (Arrive is advanced past the backoff) and goes
	// through arbitration again.
	Attempts int

	// Intrusive caller metadata: the memory controller records the access's
	// origin and routing directly on the request, so it needs no
	// pointer-keyed side table and can pool completed requests.
	Phys    uint64
	Machine uint64
	Issue   int64
	OnPkg   bool

	// Stage and Aux extend the intrusive metadata for the cache schemes'
	// multi-leg accesses (tag probe → data → fill chaining in memctrl):
	// Stage is the controller's leg state, Aux carries the slot address
	// across legs. The default scheme leaves both zero.
	Stage uint8
	Aux   uint64

	// loc is Addr decoded once at Submit; arbitration and service read it
	// instead of decoding the address again.
	loc dram.Location
}

// Latency returns the request's region-internal latency (queue + DRAM).
func (r *Request) Latency() int64 { return r.Done - r.Arrive }

// BulkJob is one background bulk transfer (a migration sub-block copy leg).
type BulkJob struct {
	Tag      uint64 // caller-defined grouping (copy-step ID)
	Duration int64  // total bus cycles the transfer needs
	Earliest int64  // not schedulable before this cycle
	Done     int64  // completion cycle, valid once the callback fires

	// Meta is an opaque caller slot: the memory controller hangs its
	// copy-leg state here instead of keying a side map on the job pointer.
	Meta any

	remaining int64
	enqueued  int64
}

// jobFIFO is one channel's background queue: a ring over a power-of-two
// buffer. Dequeueing is O(1) however deep the backlog, and a steady
// backlog keeps reusing its buffer instead of reallocating.
type jobFIFO struct {
	buf  []*BulkJob // len is zero or a power of two
	head int
	n    int
}

// at returns the i-th queued job, 0 being the head.
func (q *jobFIFO) at(i int) *BulkJob { return q.buf[(q.head+i)&(len(q.buf)-1)] }

func (q *jobFIFO) push(j *BulkJob) {
	if q.n == len(q.buf) {
		grown := make([]*BulkJob, max(4, 2*len(q.buf)))
		for i := range q.n {
			grown[i] = q.at(i)
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = j
	q.n++
}

func (q *jobFIFO) pop() {
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

// Config tunes scheduler behaviour.
type Config struct {
	// AgingLimit is how long (cycles) the head background job may starve on
	// a saturated channel before it is granted one quantum ahead of
	// foreground work. Zero selects the default.
	AgingLimit int64
	// StealQuantum is the bus time granted per aging grant. Zero selects
	// the default.
	StealQuantum int64
	// FCFSOnly (ablation) disables the first-ready reordering: requests
	// are served strictly oldest-first.
	FCFSOnly bool
}

// Default background service parameters.
const (
	DefaultAgingLimit   = 4096
	DefaultStealQuantum = 256
)

// Scheduler schedules one region.
type Scheduler struct {
	dev     *dram.Device
	aging   int64
	quantum int64
	onDone  func(*Request)
	onBulk  func(*BulkJob)

	// onFault, when set, decides what happens after the device reports a
	// faulted burst for a request: retry (after backoff cycles of settling
	// time) or give up and deliver the access as-is. The faulted attempt's
	// bus and bank time has been spent either way.
	onFault func(*Request) (retry bool, backoff int64)

	pending [][]*Request // per channel, arrival order
	bulk    []jobFIFO    // per channel
	next    []int64      // per channel: earliest next command-issue decision
	grant   []int64      // per channel: last aging-grant time (starvation backstop)
	busy    uint64       // bit ch set while channel ch has a request or bulk job queued
	tcl     int64        // cached device TCL for command/data pipelining
	fcfs    bool         // ablation: strict FCFS instead of FR-FCFS

	// wake is, per channel, the earliest clock at which a drain could
	// change anything (0 = unknown: drain at every clock). A channel's
	// device bus state is exact only once the channel has been settled.
	wake []int64
	// While channel ch's bit is set in idle, its head background job,
	// which had the channel to itself when a drain deferred it, is owed
	// the bus time up to owed[ch]: the clock of that drain, then of every
	// later Advance that skipped the channel. settle reserves it.
	owed []int64
	idle uint64
	// due is a lower bound on the wake of every busy channel: Advance at a
	// clock below it has nothing to drain. Every drain that stores a wake
	// lowers it, and a full Advance pass recomputes it.
	due int64

	served      uint64
	bulkServed  uint64
	sumQueueing int64
	agingGrants uint64

	// Optional observability instruments (nil-safe; see SetObs).
	obsGrants *obs.Counter
	obsStolen *obs.Counter
}

// New builds a scheduler over dev. onDone fires as each request's service
// is finalized (possibly out of submission order); onBulk fires as each
// background job completes. Either callback may be nil. The device may
// have at most 64 channels, one bit each in the busy mask.
func New(dev *dram.Device, cfg Config, onDone func(*Request), onBulk func(*BulkJob)) (*Scheduler, error) {
	if dev == nil {
		return nil, fmt.Errorf("sched: nil device")
	}
	n := dev.Geometry().Channels
	if n > 64 {
		return nil, fmt.Errorf("sched: %d channels, at most 64 supported", n)
	}
	aging := cfg.AgingLimit
	if aging <= 0 {
		aging = DefaultAgingLimit
	}
	quantum := cfg.StealQuantum
	if quantum <= 0 {
		quantum = DefaultStealQuantum
	}
	return &Scheduler{
		dev:     dev,
		aging:   aging,
		quantum: quantum,
		fcfs:    cfg.FCFSOnly,
		onDone:  onDone,
		onBulk:  onBulk,
		pending: make([][]*Request, n),
		bulk:    make([]jobFIFO, n),
		next:    make([]int64, n),
		grant:   make([]int64, n),
		wake:    make([]int64, n),
		owed:    make([]int64, n),
		tcl:     dev.Timing().TCL,
	}, nil
}

// Submit enqueues a request and advances its channel as far as the global
// clock `now` (>= r.Arrive) allows.
//
// A request whose channel has no request or background job queued, and
// whose decision time max(next, Arrive) has come, is served at once: a
// drain's first pick would be this request and nothing else. Only when its
// fault retry or completion callback leaves work on the channel does the
// drain run, from where its loop would have gone on.
func (s *Scheduler) Submit(r *Request, now int64) {
	r.loc = s.dev.Decode(r.Addr)
	ch := r.loc.Channel
	if len(s.pending[ch]) == 0 && s.bulk[ch].n == 0 {
		if at := max(s.next[ch], r.Arrive); at <= now {
			s.serve(ch, r, at)
			if len(s.pending[ch]) > 0 || s.bulk[ch].n > 0 {
				s.drain(ch, now)
			}
			return
		}
	}
	s.insert(ch, r)
	s.drain(ch, now)
}

// SetFaultHandler installs the retry-policy callback consulted when the
// device faults a request's burst (see the onFault field). Pass nil to
// treat faults as silently delivered.
func (s *Scheduler) SetFaultHandler(h func(*Request) (retry bool, backoff int64)) {
	s.onFault = h
}

// insert adds r to its channel queue keeping arrival order. Trace arrivals
// are monotonic so this is normally an append; fault retries re-arrive in
// the future and may interleave with younger submissions, so the queue
// must stay sorted for the decision-time logic to hold.
func (s *Scheduler) insert(ch int, r *Request) {
	s.busy |= 1 << uint(ch)
	q := s.pending[ch]
	if n := len(q); n == 0 || q[n-1].Arrive <= r.Arrive {
		s.pending[ch] = append(q, r)
		return
	}
	i := sort.Search(len(q), func(i int) bool { return q[i].Arrive > r.Arrive })
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = r
	s.pending[ch] = q
}

// SubmitBulk enqueues a background bulk job on channel ch.
func (s *Scheduler) SubmitBulk(ch int, j *BulkJob, now int64) {
	j.remaining = j.Duration
	j.enqueued = now
	if j.Earliest > j.enqueued {
		j.enqueued = j.Earliest
	}
	s.busy |= 1 << uint(ch)
	s.bulk[ch].push(j)
	s.drain(ch, now)
}

// Advance lets every channel commit decisions up to the global clock `now`;
// call this periodically so background traffic progresses on channels with
// no foreground arrivals.
//
// Advance runs on every access. While the clock is below the due bound, no
// busy channel's wake has come and a pass would drain nothing; with no
// channel idle either, it would change nothing, and Advance returns at
// once.
func (s *Scheduler) Advance(now int64) {
	if now < s.due && s.idle == 0 {
		return
	}
	s.advance(now)
}

// advance is the rest of Advance. Below the due bound a pass would only
// move the clock owed to idle channels, so that is all it does. Only idle
// channels need it: a drain overwrites a channel's owed clock when it sets
// the channel's idle bit.
//
// Otherwise it visits the busy channels in ascending order, drains those
// whose wake has come and recomputes the due bound from the rest. The mask
// is re-read after each drain: a completion callback may queue work on a
// later channel, which is then drained in the same call.
func (s *Scheduler) advance(now int64) {
	if now < s.due {
		for idle := s.idle; idle != 0; idle &= idle - 1 {
			ch := bits.TrailingZeros64(idle)
			s.owed[ch] = max(s.owed[ch], now)
		}
		return
	}
	s.due = math.MaxInt64
	for ch := 0; ; ch++ {
		later := s.busy >> uint(ch)
		if later == 0 {
			return
		}
		ch += bits.TrailingZeros64(later)
		if w := s.wake[ch]; w > now {
			// A drain would change nothing but an idle job's progress, and
			// that is owed instead. The deferring drain may have run at a
			// Submit's arrival, ahead of this clock: keep the larger.
			s.owed[ch] = max(s.owed[ch], now)
			s.due = min(s.due, w)
			continue
		}
		s.drain(ch, now)
	}
}

// sleep records that channel ch has nothing to drain before the clock
// reaches wake.
func (s *Scheduler) sleep(ch int, wake int64) {
	s.wake[ch] = wake
	s.due = min(s.due, wake)
}

// ReserveBus books dur cycles of channel ch's bus for a synchronous
// transfer starting no earlier than `at` (see dram.Device.ReserveBus),
// after settling the channel so the transfer queues behind the background
// progress already owed.
func (s *Scheduler) ReserveBus(ch int, at, dur int64) int64 {
	s.settle(ch)
	return s.dev.ReserveBus(ch, at, dur)
}

// Settle applies every channel's owed background progress, making the
// device's bus state exact, for instance before the device is
// checkpointed. It changes no schedule.
func (s *Scheduler) Settle() {
	for ch := range s.owed {
		s.settle(ch)
	}
}

// settle reserves the progress owed to channel ch's idle head job: the bus
// time from where the job could start up to the owed clock, which a drain
// at that clock would have reserved. It never completes the job, because
// the channel's wake is the job's completion and a drain comes first. The
// channel stays idle, owing whatever later clocks skip it.
func (s *Scheduler) settle(ch int) {
	if s.idle&(1<<uint(ch)) != 0 {
		s.settleIdle(ch)
	}
}

func (s *Scheduler) settleIdle(ch int) {
	j := s.bulk[ch].at(0)
	bgAt := max(s.dev.BusFree(ch), j.Earliest)
	if bgAt >= s.owed[ch] {
		return
	}
	s.reserveBulk(ch, j, bgAt, s.owed[ch]-bgAt)
}

// reserveBulk runs quantum cycles of job j on channel ch from bgAt and
// returns the cycle they end.
func (s *Scheduler) reserveBulk(ch int, j *BulkJob, bgAt, quantum int64) int64 {
	s.obsStolen.Add(uint64(quantum))
	end := s.dev.ReserveSlice(ch, bgAt, quantum)
	if n := end - s.tcl; n > s.next[ch] {
		s.next[ch] = n
	}
	j.remaining -= quantum
	return end
}

// Flush finalizes everything still queued, as if time ran to infinity, and
// returns the largest completion cycle seen.
func (s *Scheduler) Flush() int64 {
	const horizon = int64(1) << 62
	var last int64
	for ch := range s.pending {
		s.drain(ch, horizon)
		if f := s.dev.BusFree(ch); f > last {
			last = f
		}
	}
	return last
}

// drain commits scheduling decisions on channel ch while they are safe
// (decision time <= now), and records when it next has to run.
func (s *Scheduler) drain(ch int, now int64) {
	for {
		// Settle first, and again after every completion callback: one may
		// have drained this channel reentrantly and left progress owed.
		s.settle(ch)
		s.idle &^= 1 << uint(ch)
		fg := s.pending[ch]
		bg := &s.bulk[ch]
		if len(fg) == 0 && bg.n == 0 {
			s.busy &^= 1 << uint(ch)
			return
		}
		busFree := s.dev.BusFree(ch)

		// Commands issue ahead of data: the next scheduling decision happens
		// when the channel can accept another column command, which runs TCL
		// ahead of the data bus. This is what lets row hits stream at burst
		// rate instead of re-paying the CAS latency per request.
		fgAt := int64(math.MaxInt64)
		if len(fg) > 0 {
			fgAt = s.next[ch]
			if fg[0].Arrive > fgAt {
				fgAt = fg[0].Arrive
			}
		}

		// Background cycle-stealing.
		if bg.n > 0 {
			j := bg.at(0)
			if j.Earliest <= now {
				bgAt := busFree
				if j.Earliest > bgAt {
					bgAt = j.Earliest
				}
				var quantum int64
				switch {
				case len(fg) == 0:
					// Idle channel: the job runs as far as the clock allows.
					// Short of its completion that progress is owed, and
					// nothing else can happen on the channel until the job
					// completes or work arrives.
					if done := bgAt + j.remaining; done > now {
						s.idle |= 1 << uint(ch)
						s.owed[ch] = now
						s.sleep(ch, done)
						return
					}
					quantum = j.remaining
				case fgAt > bgAt:
					// Fill the gap before the next foreground decision.
					quantum = min(j.remaining, fgAt-bgAt)
				case now-j.enqueued > s.aging && now-s.grant[ch] > s.aging:
					// Saturated channel: the job has starved a full aging
					// period of wall-clock time; grant one quantum ahead of
					// foreground work so copies keep a minimum service rate.
					// The grant time is per channel so a backlog of equally
					// starved jobs cannot cascade back-to-back.
					quantum = min(j.remaining, s.quantum)
					j.enqueued = now
					s.grant[ch] = now
					s.agingGrants++
					s.obsGrants.Inc()
				}
				if quantum > 0 {
					end := s.reserveBulk(ch, j, bgAt, quantum)
					if j.remaining == 0 {
						s.dev.CountTransfer(j.Duration)
						j.Done = end
						bg.pop()
						s.bulkServed++
						if s.onBulk != nil {
							s.onBulk(j)
						}
					}
					continue
				}
				if len(fg) == 0 {
					s.sleep(ch, 0) // a job with nothing left to run
					return
				}
			} else if len(fg) == 0 {
				s.sleep(ch, j.Earliest)
				return
			}
		}

		if fgAt > now {
			// Nothing can commit before fgAt: the queue is sorted by arrival
			// and s.next only moves through this loop. A queued job can only
			// become eligible at its Earliest or, having filled the gap to
			// fgAt already, take an aging grant once the threshold passes.
			wake := fgAt
			if bg.n > 0 {
				j := bg.at(0)
				if j.Earliest > now {
					wake = min(wake, j.Earliest)
				}
				wake = min(wake, max(j.enqueued, s.grant[ch])+s.aging+1)
			}
			s.sleep(ch, wake)
			return
		}

		// FR-FCFS: among requests that have arrived by the decision time,
		// prefer the oldest row-buffer hit; otherwise the oldest request.
		pick := -1
		if !s.fcfs {
			for i, r := range fg {
				if r.Arrive > fgAt {
					break
				}
				if s.dev.RowHit(r.loc) {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			pick = 0
		}
		r := fg[pick]
		n := pick + copy(fg[pick:], fg[pick+1:])
		fg[n] = nil
		s.pending[ch] = fg[:n]
		s.serve(ch, r, fgAt)
	}
}

// serve commits request r, already out of channel ch's queue, at decision
// time at: its burst, the channel's next decision time, and then either a
// fault retry, which queues r again, or its completion.
func (s *Scheduler) serve(ch int, r *Request, at int64) {
	done, coreLat, faulted := s.dev.ServiceChecked(r.loc, r.Write, at)
	if n := done - s.tcl; n > s.next[ch] {
		s.next[ch] = n
	}
	if faulted && s.onFault != nil {
		if retry, backoff := s.onFault(r); retry {
			// The bad burst consumed real bus time; the retry re-arrives
			// after the backoff and arbitrates like any other request.
			r.Attempts++
			r.Arrive = done + backoff
			s.insert(ch, r)
			return
		}
	}
	r.Start = at
	r.Done, r.CoreLat = done, coreLat
	s.served++
	s.sumQueueing += r.Start - r.Arrive
	if s.onDone != nil {
		s.onDone(r)
	}
}

// QueueLen returns the total number of waiting foreground requests.
func (s *Scheduler) QueueLen() int {
	n := 0
	for _, q := range s.pending {
		n += len(q)
	}
	return n
}

// BulkBacklog returns the number of waiting background jobs.
func (s *Scheduler) BulkBacklog() int {
	n := 0
	for _, q := range s.bulk {
		n += q.n
	}
	return n
}

// SetObs wires optional observability counters: grants counts aging-backstop
// grants (background jobs served ahead of foreground work on a saturated
// channel), stolen counts total bus cycles the background class consumed.
// Either may be nil; recording into nil instruments is a no-op.
func (s *Scheduler) SetObs(grants, stolen *obs.Counter) {
	s.obsGrants = grants
	s.obsStolen = stolen
}

// Stats returns the requests served, the bulk jobs served, and the summed
// queuing delay of the served requests in cycles. The mean queue delay is
// the sum over the served count; a multi-channel hub sums both across its
// per-channel schedulers first and divides once, so its mean is exact
// rather than a mean of per-channel means.
func (s *Scheduler) Stats() (served, bulkServed uint64, sumQueueing int64) {
	return s.served, s.bulkServed, s.sumQueueing
}

// Device exposes the underlying DRAM model (for stats and power).
func (s *Scheduler) Device() *dram.Device { return s.dev }
