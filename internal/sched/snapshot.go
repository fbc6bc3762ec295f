package sched

import "heteromem/internal/snap"

// SnapshotTo writes the scheduler's dynamic state: per-channel decision
// clocks, the waiting foreground requests and background bulk jobs, and
// the service counters. Requests still in the queue carry no output fields
// yet (Start/Done/CoreLat are set at completion), so their identity,
// arrival, address, and retry count reconstruct them exactly. The device,
// callbacks, and tuning parameters are construction inputs.
func (s *Scheduler) SnapshotTo(e *snap.Encoder) {
	e.U32(uint32(len(s.pending)))
	for ch := range s.pending {
		e.I64(s.next[ch])
		e.I64(s.grant[ch])
		e.U32(uint32(len(s.pending[ch])))
		for _, r := range s.pending[ch] {
			e.U64(r.ID)
			e.I64(r.Arrive)
			e.U64(r.Addr)
			e.Bool(r.Write)
			e.U32(uint32(r.Attempts))
		}
		q := &s.bulk[ch]
		e.U32(uint32(q.n))
		for i := range q.n {
			j := q.at(i)
			e.U64(j.Tag)
			e.I64(j.Duration)
			e.I64(j.Earliest)
			e.I64(j.remaining)
			e.I64(j.enqueued)
		}
	}
	e.U64(s.served)
	e.U64(s.bulkServed)
	e.I64(s.sumQueueing)
	e.U64(s.agingGrants)
}

// RestoreFrom reads the state written by SnapshotTo into a scheduler built
// over the same device and config, materializing fresh Request and BulkJob
// objects. Callers that keyed auxiliary state on the old pointers reattach
// it through ForEachPending / ForEachBulk. The derived state, the busy mask
// and each request's decoded location, is rebuilt rather than serialized.
func (s *Scheduler) RestoreFrom(d *snap.Decoder) error {
	nc := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	if nc != len(s.pending) {
		d.Invalid("scheduler has %d channels, snapshot has %d", len(s.pending), nc)
		return d.Err()
	}
	s.busy = 0
	for ch := range s.pending {
		s.next[ch] = d.I64()
		s.grant[ch] = d.I64()
		nf := int(d.U32())
		if d.Err() != nil {
			return d.Err()
		}
		s.pending[ch] = make([]*Request, 0, nf)
		for i := 0; i < nf; i++ {
			r := &Request{
				ID:     d.U64(),
				Arrive: d.I64(),
				Addr:   d.U64(),
				Write:  d.Bool(),
			}
			r.Attempts = int(d.U32())
			if d.Err() != nil {
				return d.Err()
			}
			r.loc = s.dev.Decode(r.Addr)
			if r.loc.Channel != ch {
				d.Invalid("request %d in channel %d queue decodes to channel %d", r.ID, ch, r.loc.Channel)
				return d.Err()
			}
			s.pending[ch] = append(s.pending[ch], r)
		}
		nb := int(d.U32())
		if d.Err() != nil {
			return d.Err()
		}
		s.bulk[ch] = jobFIFO{}
		for i := 0; i < nb; i++ {
			j := &BulkJob{
				Tag:      d.U64(),
				Duration: d.I64(),
				Earliest: d.I64(),
			}
			j.remaining = d.I64()
			j.enqueued = d.I64()
			if d.Err() != nil {
				return d.Err()
			}
			s.bulk[ch].push(j)
		}
		if nf > 0 || nb > 0 {
			s.busy |= 1 << uint(ch)
		}
	}
	s.served = d.U64()
	s.bulkServed = d.U64()
	s.sumQueueing = d.I64()
	s.agingGrants = d.U64()
	return d.Err()
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
