package sched

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"heteromem/internal/config"
	"heteromem/internal/dram"
	"heteromem/internal/obs"
	"heteromem/internal/snap"
)

// refDrain and refAdvance are the scheduler's decision loop and clock
// before channels were drained only at their events: every Advance drains
// every busy channel whose foreground queue is not known to wait, and an
// idle channel's background job takes one bus slice per drain. They are
// the reference the event-driven scheduler must reproduce exactly.
func refDrain(s *Scheduler, ch int, now int64) {
	s.wake[ch] = 0
	for {
		fg := s.pending[ch]
		bg := &s.bulk[ch]
		if len(fg) == 0 && bg.n == 0 {
			s.busy &^= 1 << uint(ch)
			return
		}
		busFree := s.dev.BusFree(ch)
		fgAt := int64(math.MaxInt64)
		if len(fg) > 0 {
			fgAt = s.next[ch]
			if fg[0].Arrive > fgAt {
				fgAt = fg[0].Arrive
			}
		}
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
					if bgAt < now {
						quantum = min(j.remaining, now-bgAt)
					}
				case fgAt > bgAt:
					quantum = min(j.remaining, fgAt-bgAt)
				case now-j.enqueued > s.aging && now-s.grant[ch] > s.aging:
					quantum = min(j.remaining, s.quantum)
					j.enqueued = now
					s.grant[ch] = now
					s.agingGrants++
					s.obsGrants.Inc()
				}
				if quantum > 0 {
					s.obsStolen.Add(uint64(quantum))
					end := s.dev.ReserveSlice(ch, bgAt, quantum)
					if n := end - s.tcl; n > s.next[ch] {
						s.next[ch] = n
					}
					j.remaining -= quantum
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
					return
				}
			} else if len(fg) == 0 {
				return
			}
		}
		if len(fg) == 0 || fgAt > now {
			if len(fg) > 0 && bg.n == 0 {
				s.wake[ch] = fgAt
			}
			return
		}
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
		done, coreLat, faulted := s.dev.ServiceChecked(r.loc, r.Write, fgAt)
		if n := done - s.tcl; n > s.next[ch] {
			s.next[ch] = n
		}
		n := pick + copy(fg[pick:], fg[pick+1:])
		fg[n] = nil
		s.pending[ch] = fg[:n]
		if faulted && s.onFault != nil {
			if retry, backoff := s.onFault(r); retry {
				r.Attempts++
				r.Arrive = done + backoff
				s.insert(ch, r)
				continue
			}
		}
		r.Start = fgAt
		r.Done, r.CoreLat = done, coreLat
		s.served++
		s.sumQueueing += r.Start - r.Arrive
		if s.onDone != nil {
			s.onDone(r)
		}
	}
}

func refAdvance(s *Scheduler, now int64) {
	for ch := 0; ; ch++ {
		later := s.busy >> uint(ch)
		if later == 0 {
			return
		}
		ch += bits.TrailingZeros64(later)
		if s.wake[ch] > now {
			continue
		}
		refDrain(s, ch, now)
	}
}

// schedRig drives one scheduler, the event-driven one or the reference,
// the way the memory controller does, and logs everything it completes.
type schedRig struct {
	ref      bool
	channels int
	cfg      Config
	s        *Scheduler
	clock    int64 // the controller clock: the largest Advance so far
	nextID   uint64
	grants   obs.Counter
	stolen   obs.Counter
	log      []string
	restored int // snapshots restored while a deferral was pending
}

func newSchedRig(t *testing.T, ref bool, channels int, cfg Config) *schedRig {
	g := &schedRig{ref: ref, channels: channels, cfg: cfg}
	g.s = g.build(t)
	return g
}

func (g *schedRig) build(t *testing.T) *Scheduler {
	t.Helper()
	dev, err := dram.New(dram.Geometry{
		Channels: g.channels, BanksPerCh: 8, RowBytes: 8192, BurstBytes: 64,
	}, config.OffPackageTiming())
	if err != nil {
		t.Fatal(err)
	}
	// A burst faults on a fixed function of where and when it issues, so
	// both schedulers see the same faults for the same decisions.
	dev.SetFaultHook(func(loc dram.Location, _ bool, at int64) bool {
		return (uint64(at)*0x9e3779b97f4a7c15^uint64(loc.Row)<<7^uint64(loc.Bank))%29 == 0
	})
	s, err := New(dev, g.cfg, g.requestDone, g.bulkDone)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFaultHandler(func(r *Request) (bool, int64) {
		return r.Attempts < 2, 40 + 25*int64(r.Attempts)
	})
	s.SetObs(&g.grants, &g.stolen)
	return s
}

// requestDone logs a completion; every seventh request chains a follow-on
// leg on the same channel that arrives when it completes, submitted at the
// controller clock like a cache scheme's tag-then-data access.
func (g *schedRig) requestDone(r *Request) {
	g.log = append(g.log, fmt.Sprintf("req %d start %d done %d core %d attempts %d", r.ID, r.Start, r.Done, r.CoreLat, r.Attempts))
	if r.ID%7 == 0 {
		g.submit(&Request{ID: r.ID + 1_000_000_000, Arrive: r.Done, Addr: r.Addr + 64*uint64(g.channels)}, g.clock)
	}
}

// bulkDone logs a completion; a read leg (odd tag) queues its write leg on
// the next channel, which Advance may not have reached yet.
func (g *schedRig) bulkDone(j *BulkJob) {
	g.log = append(g.log, fmt.Sprintf("job %d done %d", j.Tag, j.Done))
	if j.Tag%2 == 1 {
		ch := int(j.Tag>>8) % g.channels
		w := &BulkJob{Tag: (j.Tag + 1) ^ uint64(ch+1)<<8, Duration: j.Duration, Earliest: j.Done}
		g.submitBulk((ch+1)%g.channels, w, g.clock)
	}
}

func (g *schedRig) submit(r *Request, now int64) {
	if !g.ref {
		g.s.Submit(r, now)
		return
	}
	r.loc = g.s.dev.Decode(r.Addr)
	g.s.insert(r.loc.Channel, r)
	refDrain(g.s, r.loc.Channel, now)
}

func (g *schedRig) submitBulk(ch int, j *BulkJob, now int64) {
	if !g.ref {
		g.s.SubmitBulk(ch, j, now)
		return
	}
	j.remaining = j.Duration
	j.enqueued = max(now, j.Earliest)
	g.s.busy |= 1 << uint(ch)
	g.s.bulk[ch].push(j)
	refDrain(g.s, ch, now)
}

func (g *schedRig) advance(now int64) {
	g.clock = max(g.clock, now)
	if g.ref {
		refAdvance(g.s, g.clock)
	} else {
		g.s.Advance(g.clock)
	}
}

func (g *schedRig) reserve(ch int, at, dur int64) {
	var end int64
	if g.ref {
		end = g.s.dev.ReserveBus(ch, at, dur)
	} else {
		end = g.s.ReserveBus(ch, at, dur)
	}
	g.log = append(g.log, fmt.Sprintf("reserve ch %d end %d", ch, end))
}

func (g *schedRig) flush() {
	if !g.ref {
		g.s.Flush()
		return
	}
	for ch := range g.s.pending {
		refDrain(g.s, ch, 1<<62)
	}
}

// state settles the scheduler and returns its checkpoint bytes, device
// first, with every channel's bus-free and next-decision time.
func (g *schedRig) state(t *testing.T) ([]byte, string) {
	t.Helper()
	g.s.Settle()
	enc := snap.NewEncoder()
	g.s.dev.Snap(enc.Section("dev"))
	g.s.Snap(enc.Section("sched"))
	data, err := enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	clocks := ""
	for ch := range g.s.next {
		clocks += fmt.Sprintf(" ch%d bus %d next %d", ch, g.s.dev.BusFree(ch), g.s.next[ch])
	}
	return data, clocks
}

// restore checkpoints the scheduler and continues on a fresh one restored
// from the checkpoint.
func (g *schedRig) restore(t *testing.T) {
	t.Helper()
	if g.s.idle != 0 {
		g.restored++
	}
	data, _ := g.state(t)
	s := g.build(t)
	dec, err := snap.NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, part := range map[string]snap.Snapshotter{"dev": s.dev, "sched": s} {
		st, err := dec.Section(name)
		if err != nil {
			t.Fatal(err)
		}
		part.Snap(st)
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
	}
	g.s = s
}

// TestSchedulerMatchesPerAccessReference drives the event-driven scheduler
// and the per-access reference from one random stream of the operations
// the memory controller issues: Advance at a rising clock; Submit with
// arrivals ahead of the clock, some earlier than arrivals already
// submitted, drained at the arrival, at the clock or (a tenth of them) up
// to 600 cycles after the arrival; chained legs submitted from completion
// callbacks onto the completed request's channel; SubmitBulk with a future
// Earliest; synchronous reservations; faulted retries; and checkpoint
// restores while a deferral is pending. Every completion, reservation,
// counter and settled bus clock must be identical.
func TestSchedulerMatchesPerAccessReference(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"aging", Config{AgingLimit: 300, StealQuantum: 64}},
		{"fcfs", Config{FCFSOnly: true, AgingLimit: 900}},
		{"aging-max", Config{AgingLimit: 80, StealQuantum: 200}},
	}
	legs := []int64{300, 1237, 180, 600, 43, 64}
	for _, channels := range []int{1, 2, 4} {
		for _, c := range configs {
			name, cfg := c.name, c.cfg
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("c%d/%s/seed%d", channels, name, seed), func(t *testing.T) {
					ev := newSchedRig(t, false, channels, cfg)
					ref := newSchedRig(t, true, channels, cfg)
					rigs := []*schedRig{ev, ref}
					rng := rand.New(rand.NewSource(seed))
					var addr uint64
					var tag uint64
					for op := 0; op < 12_000; op++ {
						clock := ev.clock
						// Busy and quiet phases alternate, so channels both
						// saturate and sit idle with copies in flight.
						k := rng.Intn(100)
						if (op/500)%2 == 1 && k < 35 {
							k = 35 // an Advance
						}
						switch {
						case k < 35:
							if rng.Intn(3) == 0 {
								addr += 64 // a row-hit stream
							} else {
								addr = uint64(rng.Intn(1<<14)) * 64
							}
							arrive := clock + int64(rng.Intn(400))
							now := clock
							switch {
							case rng.Intn(10) == 0:
								now = arrive + int64(rng.Intn(600)) // submitted late
							case rng.Intn(5) != 0:
								now = arrive
							}
							write := rng.Intn(4) == 0
							ev.nextID++
							for _, g := range rigs {
								g.submit(&Request{ID: ev.nextID, Arrive: arrive, Addr: addr, Write: write}, now)
							}
						case k < 88:
							now := clock + int64(rng.Intn(100))
							if rng.Intn(50) == 0 {
								now += int64(rng.Intn(5000)) // a quiet spell
							}
							for _, g := range rigs {
								g.advance(now)
							}
						case k < 93:
							ch := rng.Intn(channels)
							tag += 2
							j := BulkJob{
								Tag:      (tag | uint64(rng.Intn(2))) ^ uint64(ch)<<8,
								Duration: legs[rng.Intn(len(legs))],
								Earliest: clock,
							}
							if rng.Intn(2) == 0 {
								j.Earliest += int64(rng.Intn(3000))
							}
							for _, g := range rigs {
								cp := j
								g.submitBulk(ch, &cp, clock)
							}
						case k < 95:
							ch := rng.Intn(channels)
							at := clock + int64(rng.Intn(500))
							dur := 100 + int64(rng.Intn(700))
							for _, g := range rigs {
								g.reserve(ch, at, dur)
							}
						case k < 97:
							for _, g := range rigs {
								g.restore(t)
							}
						default:
							evState, evClocks := ev.state(t)
							refState, refClocks := ref.state(t)
							if evClocks != refClocks {
								t.Fatalf("op %d: settled clocks differ\n event:%s\n   ref:%s", op, evClocks, refClocks)
							}
							if !slices.Equal(evState, refState) {
								t.Fatalf("op %d: settled scheduler and device state differ", op)
							}
						}
						if len(ev.log) != len(ref.log) {
							t.Fatalf("op %d: %d completions, reference %d\n%s", op, len(ev.log), len(ref.log), firstDiff(ev.log, ref.log))
						}
					}
					for _, g := range rigs {
						g.flush()
					}
					if d := firstDiff(ev.log, ref.log); d != "" {
						t.Fatalf("completion logs differ (%d vs %d entries)\n%s", len(ev.log), len(ref.log), d)
					}
					evState, evClocks := ev.state(t)
					refState, refClocks := ref.state(t)
					if evClocks != refClocks || !slices.Equal(evState, refState) {
						t.Fatalf("final state differs\n event:%s\n   ref:%s", evClocks, refClocks)
					}
					if ev.grants.Value() != ref.grants.Value() || ev.stolen.Value() != ref.stolen.Value() {
						t.Fatalf("aging grants %d, stolen cycles %d; reference %d, %d",
							ev.grants.Value(), ev.stolen.Value(), ref.grants.Value(), ref.stolen.Value())
					}
					t.Logf("%d completions, %d restores with a deferral pending, %d aging grants", len(ev.log), ev.restored, ev.grants.Value())
					if ev.restored == 0 {
						t.Fatal("no checkpoint was restored while a deferral was pending")
					}
					if ev.grants.Value() == 0 && cfg.AgingLimit != 0 {
						t.Fatal("no aging grant; the aging backstop was not exercised")
					}
				})
			}
		}
	}
}

// firstDiff describes the first entry where two logs disagree, or returns
// "" when they are equal.
func firstDiff(a, b []string) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprintf("entry %d:\n event: %s\n   ref: %s", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("lengths %d and %d", len(a), len(b))
	}
	return ""
}
