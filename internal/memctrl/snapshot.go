package memctrl

import (
	"fmt"

	"heteromem/internal/core"
	"heteromem/internal/sched"
	"heteromem/internal/snap"
)

// The controller snapshot captures the whole pipeline between two program
// accesses: clocks, both DRAM devices, both schedulers, the migration
// engine, the latency accumulators, the in-flight copy legs with their
// shared step state, and the fault-response ledger. Access and leg metadata
// live intrusively on the requests/jobs themselves; they are serialized
// positionally in the schedulers' own deterministic walk order (on-package
// first, then off-package) and reattached to the fresh objects the
// scheduler restore materializes. The framing is unchanged from the old
// side-table layout.

// Wire sizes of the variable-length lists, the bounds on their counts.
const (
	subCopyBytes = 8 + 8 + 8 + 8 + 1                // Src, Dst, Bytes, SubIndex, Exchange
	stepBytes    = 4 + 1 + 1 + 4                    // subsLeft, undo, aborted, completed count
	legBytes     = subCopyBytes + 1 + 1 + 8 + 4 + 8 // sub, isRead, dstOn, a zero word, attempts, step
)

// Snap carries the controller's dynamic state into a checkpoint or
// restores it into a controller built with the same configuration. A
// controller with a latched asynchronous error refuses to snapshot: the
// checkpoint would otherwise silently resurrect a run that already failed.
func (c *Controller) Snap(s *snap.Stream) {
	if !s.Reading() && c.firstErr != nil {
		s.Fail(fmt.Errorf("memctrl: cannot checkpoint a failed controller: %w", c.firstErr))
		return
	}
	on, off := &c.regions[OnPackage], &c.regions[OffPackage]
	if !s.Reading() {
		// The devices' bus state is exact only once the background
		// progress the schedulers owe is applied.
		on.sch.Settle()
		off.sch.Settle()
	}
	snap.Int64(s, &c.now)
	snap.Int64(s, &c.stallUntil)
	snap.Int64(s, &c.osPenalty)
	s.U64(&c.reqID)
	for _, part := range []snap.Snapshotter{on.dev, off.dev, on.sch, off.sch} {
		part.Snap(s)
	}
	if s.Present(c.mig != nil, "migration engine") {
		c.mig.Snap(s)
	}
	for _, part := range []snap.Snapshotter{
		&c.allLat, &on.lat, &off.lat, &c.dramAll, &on.dram, &off.dram, &c.hist,
	} {
		part.Snap(s)
	}
	snap.Int64(s, &c.coreLatSum)
	s.U64(&c.nDone)
	snap.Int64(s, &c.queueSum)
	snap.Int64(s, &c.swapBegin)
	snap.Int64(s, &c.stepBegin)
	snap.Int64(s, &c.rollBegin)
	s.U64(&c.swapMRU)
	s.U64(&c.swapVictim)

	c.snapAccesses(s)
	c.snapLegs(s)
	n := s.Len(len(c.undoQueue), subCopyBytes)
	if s.Reading() {
		c.undoQueue = nil
		if n > 0 {
			c.undoQueue = make([]core.SubCopy, n)
		}
	}
	for i := range c.undoQueue {
		c.undoQueue[i].Snap(s)
	}
	snap.Uint32(s, &c.stepAttempts)

	if s.Present(c.inj != nil, "fault injector") {
		c.snapFaults(s)
	}
	if s.Present(c.cfg.Power != nil, "power meter") {
		c.cfg.Power.Snap(s)
	}
	if c.cache != nil {
		// Scheme state (set array, tag buffer, predictor, stats). Under
		// memcache this is the cache part only: the migrator already rode
		// the mig slot above.
		c.cache.Snap(s)
	}
}

// snapAccesses carries the metadata of the program accesses waiting in the
// schedulers, positionally in walk order.
func (c *Controller) snapAccesses(s *snap.Stream) {
	queued := 0
	for i := range c.regions {
		queued += c.regions[i].sch.QueueLen()
	}
	s.Shape(queued, "queued access metadata")
	each := func(_ int, r *sched.Request) {
		s.U64(&r.Phys)
		s.U64(&r.Machine)
		snap.Int64(s, &r.Issue)
		s.Bool(&r.OnPkg)
		w := r.Write
		s.Bool(&w)
		if w != r.Write {
			s.Invalid("request %d write flag disagrees with its metadata", r.ID)
		}
		if c.cache != nil {
			// Cache-scheme leg state; the extra fields are gated on the
			// scheme so default-scheme checkpoints stay byte-identical.
			s.U8(&r.Stage)
			s.U64(&r.Aux)
		}
	}
	for i := range c.regions {
		c.regions[i].sch.ForEachPending(each)
	}
}

// snapLegs carries the queued bulk jobs' metadata: the distinct step states
// shared by the in-flight copy legs (the current step first, then stale,
// aborted steps referenced only by still-queued legs, in walk order), the
// current step, the legs, and — under a cache scheme, whose jobs interleave
// with migration legs — one kind per queued job. Restoring reattaches the
// metadata to the jobs the scheduler restore materialized.
func (c *Controller) snapLegs(s *snap.Stream) {
	var jobs []*sched.BulkJob
	collect := func(_ int, j *sched.BulkJob) { jobs = append(jobs, j) }
	for i := range c.regions {
		c.regions[i].sch.ForEachBulk(collect)
	}
	var (
		steps []*stepState
		index = make(map[*stepState]int)
		legs  []*legMeta
		kinds = make([]uint8, len(jobs)) // per queued job; 0 = migration leg
	)
	if !s.Reading() {
		ref := func(st *stepState) {
			if _, ok := index[st]; st != nil && !ok {
				index[st] = len(steps)
				steps = append(steps, st)
			}
		}
		ref(c.step)
		for i, j := range jobs {
			if sj, ok := j.Meta.(*schemeJob); ok {
				if c.cache == nil {
					s.Fail(fmt.Errorf("memctrl: scheme job %d queued without a cache scheme", j.Tag))
					return
				}
				kinds[i] = sj.kind
				continue
			}
			meta, _ := j.Meta.(*legMeta)
			if meta == nil {
				s.Fail(fmt.Errorf("memctrl: bulk job %d queued without leg metadata", j.Tag))
				return
			}
			ref(meta.step)
			legs = append(legs, meta)
		}
	}

	n := s.Len(len(steps), stepBytes)
	if s.Reading() {
		steps = make([]*stepState, n)
		for i := range steps {
			steps[i] = new(stepState)
		}
	}
	for _, st := range steps {
		snap.Uint32(s, &st.subsLeft)
		s.Bool(&st.undo)
		s.Bool(&st.aborted)
		nc := s.Len(len(st.completed), 8)
		if s.Reading() && nc > 0 {
			st.completed = make([]int, nc)
		}
		for k := range st.completed {
			snap.Int64(s, &st.completed[k])
		}
	}
	stepRef := func(st **stepState) {
		i := -1
		if *st != nil {
			i = index[*st]
		}
		snap.Int64(s, &i)
		switch {
		case !s.Reading() || s.Err() != nil:
		case i == -1:
			*st = nil
		case i < 0 || i >= len(steps):
			s.Invalid("step reference %d out of range (%d steps)", i, len(steps))
		default:
			*st = steps[i]
		}
	}
	stepRef(&c.step)

	n = s.Len(len(legs), legBytes)
	if s.Reading() {
		legs = make([]*legMeta, n)
		for i := range legs {
			legs[i] = new(legMeta)
		}
	}
	for _, meta := range legs {
		meta.sub.Snap(s)
		s.Bool(&meta.isRead)
		s.Bool(&meta.dstOn)
		var zero int64 // the word of a leg field that was never set; kept so checkpoint bytes hold
		snap.Int64(s, &zero)
		snap.Uint32(s, &meta.attempts)
		stepRef(&meta.step)
	}
	if c.cache != nil {
		s.Shape(len(kinds), "queued bulk job kinds")
		for i := range kinds {
			s.U8(&kinds[i])
		}
	}
	if s.Reading() && s.Err() == nil {
		c.attachJobs(s, jobs, kinds, legs)
	}
}

// attachJobs hangs restored metadata on the queued bulk jobs in walk
// order: kind 0 takes the next migration leg, any other kind its scheme-job
// sentinel. Every leg must be taken exactly once.
func (c *Controller) attachJobs(s *snap.Stream, jobs []*sched.BulkJob, kinds []uint8, legs []*legMeta) {
	li := 0
	for i, j := range jobs {
		if k := kinds[i]; k != 0 {
			if int(k) >= len(schemeJobs) {
				s.Invalid("unknown scheme-job kind %d", k)
				return
			}
			j.Meta = &schemeJobs[k]
			continue
		}
		if li >= len(legs) {
			s.Invalid("snapshot names more migration legs than it carries (%d)", len(legs))
			return
		}
		j.Meta = legs[li]
		li++
	}
	if li != len(legs) {
		s.Invalid("snapshot carries %d migration legs but names %d", len(legs), li)
	}
}

// snapFaults carries the fault-response ledger. The dense per-frame and
// per-slot arrays serialize as sparse sorted entry lists: ascending index
// order is exactly the sorted-key order the map-backed layout produced.
func (c *Controller) snapFaults(s *snap.Stream) {
	c.inj.Snap(s)
	c.faultRep.Snap(s)
	snap.Sparse(s, "frame-fault entry", c.frameFaults, 0, snap.Int64[int], snap.Uint32[int])
	n := s.Len(len(c.retireQueue), 8)
	if s.Reading() {
		c.retireQueue = nil
		if n > 0 {
			c.retireQueue = make([]int, n)
		}
	}
	for i := range c.retireQueue {
		snap.Int64(s, &c.retireQueue[i])
	}
	// A queued slot's only value is true: the entry carries its index alone.
	snap.Sparse(s, "retire-queued slot", c.retireQueued, false, snap.Int64[int],
		func(_ *snap.Stream, q *bool) { *q = true })
	s.Bool(&c.degradePending)
	s.Bool(&c.degradedMode)
}
