package sched

import "heteromem/internal/snap"

// Wire sizes of a queued request (ID, Arrive, Addr, Write, Attempts) and a
// queued bulk job (Tag, Duration, Earliest, remaining, enqueued): the
// bounds on their counts.
const (
	requestBytes = 8 + 8 + 8 + 1 + 4
	bulkJobBytes = 5 * 8
)

// Snap carries the scheduler's dynamic state: per-channel decision clocks,
// the waiting foreground requests and background bulk jobs, and the service
// counters. Requests still in the queue carry no output fields yet
// (Start/Done/CoreLat are set at completion), so their identity, arrival,
// address, and retry count reconstruct them exactly. The device, callbacks,
// and tuning parameters are construction inputs.
//
// Restoring materializes fresh Request and BulkJob objects; callers that
// keep metadata on them reattach it through ForEachPending / ForEachBulk.
// The derived state, the busy mask and each request's decoded location, is
// rebuilt rather than serialized.
//
// Owed background progress and the due bound are not serialized either:
// Settle the scheduler before its device is written. A restored scheduler
// owes nothing and drains every busy channel at its next Advance.
func (s *Scheduler) Snap(st *snap.Stream) {
	st.Shape(len(s.pending), "scheduler channels")
	if st.Reading() {
		s.busy, s.idle, s.due = 0, 0, 0
		clear(s.wake)
	}
	for ch := range s.pending {
		snap.Int64(st, &s.next[ch])
		snap.Int64(st, &s.grant[ch])
		nf := st.Len(len(s.pending[ch]), requestBytes)
		if st.Reading() {
			s.pending[ch] = make([]*Request, nf)
			for i := range s.pending[ch] {
				s.pending[ch][i] = new(Request)
			}
		}
		for _, r := range s.pending[ch] {
			st.U64(&r.ID)
			snap.Int64(st, &r.Arrive)
			st.U64(&r.Addr)
			st.Bool(&r.Write)
			snap.Uint32(st, &r.Attempts)
			if !st.Reading() || st.Err() != nil {
				continue
			}
			r.loc = s.dev.Decode(r.Addr)
			if r.loc.Channel != ch {
				st.Invalid("request %d in channel %d queue decodes to channel %d", r.ID, ch, r.loc.Channel)
				return
			}
		}
		q := &s.bulk[ch]
		nb := st.Len(q.n, bulkJobBytes)
		if st.Reading() {
			*q = jobFIFO{}
			for range nb {
				q.push(new(BulkJob))
			}
		}
		for i := range q.n {
			j := q.at(i)
			st.U64(&j.Tag)
			snap.Int64(st, &j.Duration)
			snap.Int64(st, &j.Earliest)
			snap.Int64(st, &j.remaining)
			snap.Int64(st, &j.enqueued)
		}
		if st.Reading() && (nf > 0 || nb > 0) {
			s.busy |= 1 << uint(ch)
		}
	}
	st.U64(&s.served)
	st.U64(&s.bulkServed)
	snap.Int64(st, &s.sumQueueing)
	st.U64(&s.agingGrants)
}

// ForEachPending visits every waiting foreground request in deterministic
// order (channel ascending, queue position ascending).
func (s *Scheduler) ForEachPending(fn func(ch int, r *Request)) {
	for ch, q := range s.pending {
		for _, r := range q {
			fn(ch, r)
		}
	}
}

// ForEachBulk visits every waiting background job in deterministic order
// (channel ascending, queue position ascending).
func (s *Scheduler) ForEachBulk(fn func(ch int, j *BulkJob)) {
	for ch := range s.bulk {
		q := &s.bulk[ch]
		for i := range q.n {
			fn(ch, q.at(i))
		}
	}
}
