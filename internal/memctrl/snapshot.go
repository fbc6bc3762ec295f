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

// SnapshotTo writes the controller's dynamic state. A controller with a
// latched asynchronous error refuses to snapshot: the checkpoint would
// otherwise silently resurrect a run that already failed.
func (c *Controller) SnapshotTo(e *snap.Encoder) {
	if c.firstErr != nil {
		e.Fail(fmt.Errorf("memctrl: cannot checkpoint a failed controller: %w", c.firstErr))
		return
	}
	e.I64(c.now)
	e.I64(c.stallUntil)
	e.I64(c.osPenalty)
	e.U64(c.reqID)

	c.onDev.SnapshotTo(e)
	c.offDev.SnapshotTo(e)
	c.onSch.SnapshotTo(e)
	c.offSch.SnapshotTo(e)

	e.Bool(c.mig != nil)
	if c.mig != nil {
		c.mig.SnapshotTo(e)
	}

	c.allLat.SnapshotTo(e)
	c.onLat.SnapshotTo(e)
	c.offLat.SnapshotTo(e)
	c.dramAll.SnapshotTo(e)
	c.dramOn.SnapshotTo(e)
	c.dramOff.SnapshotTo(e)
	c.hist.SnapshotTo(e)
	e.I64(c.coreLatSum)
	e.U64(c.nDone)
	e.I64(c.queueSum)
	e.I64(c.swapBegin)
	e.I64(c.stepBegin)
	e.I64(c.rollBegin)
	e.U64(c.swapMRU)
	e.U64(c.swapVictim)

	// Program accesses waiting in the schedulers, positionally. The access
	// metadata lives on the requests themselves, so the walk serializes it
	// in place; the framing matches the old side-table layout exactly.
	snapMeta := func(ch int, r *sched.Request) {
		e.U64(r.Phys)
		e.U64(r.Machine)
		e.I64(r.Issue)
		e.Bool(r.OnPkg)
		e.Bool(r.Write)
		if c.cache != nil {
			// Cache-scheme leg state; the extra fields are gated on the
			// scheme so default-scheme checkpoints stay byte-identical.
			e.U8(r.Stage)
			e.U64(r.Aux)
		}
	}
	e.U32(uint32(c.onSch.QueueLen() + c.offSch.QueueLen()))
	c.onSch.ForEachPending(snapMeta)
	c.offSch.ForEachPending(snapMeta)

	// Distinct step states shared by the in-flight copy legs. The current
	// step comes first; stale (aborted) steps referenced only by still-queued
	// legs follow in walk order.
	var steps []*stepState
	stepIdx := make(map[*stepState]int)
	stepRef := func(st *stepState) int {
		if st == nil {
			return -1
		}
		if i, ok := stepIdx[st]; ok {
			return i
		}
		stepIdx[st] = len(steps)
		steps = append(steps, st)
		return stepIdx[st]
	}
	stepRef(c.step)
	var legs []*legMeta
	var jobKinds []uint8 // per queued bulk job, walk order; 0 = migration leg
	collectLeg := func(ch int, j *sched.BulkJob) {
		if sj, ok := j.Meta.(*schemeJob); ok {
			if c.cache == nil {
				e.Fail(fmt.Errorf("memctrl: scheme job %d queued without a cache scheme", j.Tag))
				return
			}
			jobKinds = append(jobKinds, sj.kind)
			return
		}
		meta, _ := j.Meta.(*legMeta)
		if meta == nil {
			e.Fail(fmt.Errorf("memctrl: bulk job %d queued without leg metadata", j.Tag))
			return
		}
		jobKinds = append(jobKinds, 0)
		stepRef(meta.step)
		legs = append(legs, meta)
	}
	c.onSch.ForEachBulk(collectLeg)
	c.offSch.ForEachBulk(collectLeg)
	e.U32(uint32(len(steps)))
	for _, st := range steps {
		e.U32(uint32(st.subsLeft))
		e.Bool(st.undo)
		e.Bool(st.aborted)
		e.U32(uint32(len(st.completed)))
		for _, s := range st.completed {
			e.I64(int64(s))
		}
	}
	e.I64(int64(stepRef(c.step)))
	e.U32(uint32(len(legs)))
	for _, meta := range legs {
		snapshotSubCopy(e, meta.sub)
		e.Bool(meta.isRead)
		e.Bool(meta.dstOn)
		e.I64(meta.earliest)
		e.U32(uint32(meta.attempts))
		e.I64(int64(stepIdx[meta.step]))
	}
	if c.cache != nil {
		// Which queued bulk job carries which metadata: 0 picks the next
		// migration leg above in order, non-zero a scheme-job sentinel.
		e.U32(uint32(len(jobKinds)))
		for _, k := range jobKinds {
			e.U8(k)
		}
	}

	e.U32(uint32(len(c.undoQueue)))
	for _, sc := range c.undoQueue {
		snapshotSubCopy(e, sc)
	}
	e.U32(uint32(c.stepAttempts))

	e.Bool(c.inj != nil)
	if c.inj != nil {
		c.inj.SnapshotTo(e)
		c.faultRep.SnapshotTo(e)
		// The dense per-frame arrays serialize as sparse sorted entry lists:
		// ascending index order is exactly the sorted-key order the map-backed
		// layout produced, so the framing is unchanged.
		nf := 0
		for _, v := range c.frameFaults {
			if v != 0 {
				nf++
			}
		}
		e.U32(uint32(nf))
		for f, v := range c.frameFaults {
			if v != 0 {
				e.U64(uint64(f))
				e.U32(uint32(v))
			}
		}
		e.U32(uint32(len(c.retireQueue)))
		for _, s := range c.retireQueue {
			e.I64(int64(s))
		}
		nq := 0
		for _, q := range c.retireQueued {
			if q {
				nq++
			}
		}
		e.U32(uint32(nq))
		for s, q := range c.retireQueued {
			if q {
				e.I64(int64(s))
			}
		}
		e.Bool(c.degradePending)
		e.Bool(c.degradedMode)
	}

	e.Bool(c.cfg.Power != nil)
	if c.cfg.Power != nil {
		c.cfg.Power.SnapshotTo(e)
	}

	if c.cache != nil {
		// Scheme state (set array, tag buffer, predictor, stats). Under
		// memcache this is the cache part only: the migrator already rode
		// the mig slot above.
		c.cache.SnapshotTo(e)
	}
}

// RestoreFrom reads the state written by SnapshotTo into a controller built
// with the same configuration.
func (c *Controller) RestoreFrom(d *snap.Decoder) error {
	c.now = d.I64()
	c.stallUntil = d.I64()
	c.osPenalty = d.I64()
	c.reqID = d.U64()

	if err := c.onDev.RestoreFrom(d); err != nil {
		return err
	}
	if err := c.offDev.RestoreFrom(d); err != nil {
		return err
	}
	if err := c.onSch.RestoreFrom(d); err != nil {
		return err
	}
	if err := c.offSch.RestoreFrom(d); err != nil {
		return err
	}

	hasMig := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if hasMig != (c.mig != nil) {
		d.Invalid("migration engine presence mismatch")
		return d.Err()
	}
	if c.mig != nil {
		if err := c.mig.RestoreFrom(d); err != nil {
			return err
		}
	}

	for _, ls := range []interface{ RestoreFrom(*snap.Decoder) error }{
		&c.allLat, &c.onLat, &c.offLat, &c.dramAll, &c.dramOn, &c.dramOff, &c.hist,
	} {
		if err := ls.RestoreFrom(d); err != nil {
			return err
		}
	}
	c.coreLatSum = d.I64()
	c.nDone = d.U64()
	c.queueSum = d.I64()
	c.swapBegin = d.I64()
	c.stepBegin = d.I64()
	c.rollBegin = d.I64()
	c.swapMRU = d.U64()
	c.swapVictim = d.U64()

	nMeta := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	var reqs []*sched.Request
	c.onSch.ForEachPending(func(ch int, r *sched.Request) { reqs = append(reqs, r) })
	c.offSch.ForEachPending(func(ch int, r *sched.Request) { reqs = append(reqs, r) })
	if nMeta != len(reqs) {
		d.Invalid("snapshot has %d access metadata entries for %d queued requests", nMeta, len(reqs))
		return d.Err()
	}
	for _, r := range reqs {
		r.Phys = d.U64()
		r.Machine = d.U64()
		r.Issue = d.I64()
		r.OnPkg = d.Bool()
		w := d.Bool()
		if d.Err() != nil {
			return d.Err()
		}
		if w != r.Write {
			d.Invalid("request %d write flag disagrees with its metadata", r.ID)
			return d.Err()
		}
		if c.cache != nil {
			r.Stage = d.U8()
			r.Aux = d.U64()
		}
	}

	nSteps := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	steps := make([]*stepState, nSteps)
	for i := range steps {
		st := &stepState{
			subsLeft: int(d.U32()),
			undo:     d.Bool(),
			aborted:  d.Bool(),
		}
		ncomp := int(d.U32())
		if d.Err() != nil {
			return d.Err()
		}
		if ncomp > 0 {
			st.completed = make([]int, ncomp)
			for k := range st.completed {
				st.completed[k] = int(d.I64())
			}
		}
		steps[i] = st
	}
	stepAt := func(i int) (*stepState, bool) {
		if i == -1 {
			return nil, true
		}
		if i < 0 || i >= len(steps) {
			d.Invalid("step reference %d out of range (%d steps)", i, len(steps))
			return nil, false
		}
		return steps[i], true
	}
	cur, ok := stepAt(int(d.I64()))
	if !ok {
		return d.Err()
	}
	c.step = cur
	nLegs := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	var jobs []*sched.BulkJob
	c.onSch.ForEachBulk(func(ch int, j *sched.BulkJob) { jobs = append(jobs, j) })
	c.offSch.ForEachBulk(func(ch int, j *sched.BulkJob) { jobs = append(jobs, j) })
	readLeg := func() (*legMeta, bool) {
		meta := &legMeta{sub: restoreSubCopy(d)}
		meta.isRead = d.Bool()
		meta.dstOn = d.Bool()
		meta.earliest = d.I64()
		meta.attempts = int(d.U32())
		st, ok := stepAt(int(d.I64()))
		if !ok || d.Err() != nil {
			return nil, false
		}
		meta.step = st
		return meta, true
	}
	if c.cache == nil {
		if nLegs != len(jobs) {
			d.Invalid("snapshot has %d leg metadata entries for %d queued bulk jobs", nLegs, len(jobs))
			return d.Err()
		}
		for _, j := range jobs {
			meta, ok := readLeg()
			if !ok {
				return d.Err()
			}
			j.Meta = meta
		}
	} else {
		// Scheme jobs interleave with migration legs; the kinds array maps
		// each queued job (walk order) back to its metadata.
		metas := make([]*legMeta, nLegs)
		for i := range metas {
			meta, ok := readLeg()
			if !ok {
				return d.Err()
			}
			metas[i] = meta
		}
		nKinds := int(d.U32())
		if d.Err() != nil {
			return d.Err()
		}
		if nKinds != len(jobs) {
			d.Invalid("snapshot has %d job kinds for %d queued bulk jobs", nKinds, len(jobs))
			return d.Err()
		}
		li := 0
		for _, j := range jobs {
			kind := d.U8()
			if d.Err() != nil {
				return d.Err()
			}
			if kind == 0 {
				if li >= len(metas) {
					d.Invalid("snapshot names more migration legs than it carries (%d)", nLegs)
					return d.Err()
				}
				j.Meta = metas[li]
				li++
				continue
			}
			sj := c.schemeJobByKind(kind)
			if sj == nil {
				d.Invalid("unknown scheme-job kind %d", kind)
				return d.Err()
			}
			j.Meta = sj
		}
		if li != len(metas) {
			d.Invalid("snapshot carries %d migration legs but names %d", len(metas), li)
			return d.Err()
		}
	}

	nUndo := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	c.undoQueue = nil
	for i := 0; i < nUndo; i++ {
		c.undoQueue = append(c.undoQueue, restoreSubCopy(d))
	}
	c.stepAttempts = int(d.U32())

	hasInj := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if hasInj != (c.inj != nil) {
		d.Invalid("fault injector presence mismatch")
		return d.Err()
	}
	if c.inj != nil {
		if err := c.inj.RestoreFrom(d); err != nil {
			return err
		}
		if err := c.faultRep.RestoreFrom(d); err != nil {
			return err
		}
		nf := int(d.U32())
		if d.Err() != nil {
			return d.Err()
		}
		for i := range c.frameFaults {
			c.frameFaults[i] = 0
		}
		for i := 0; i < nf; i++ {
			f := d.U64()
			v := int(d.U32())
			if d.Err() != nil {
				return d.Err()
			}
			if f >= uint64(len(c.frameFaults)) {
				d.Invalid("frame-fault entry %d out of range (%d frames)", f, len(c.frameFaults))
				return d.Err()
			}
			c.frameFaults[f] = v
		}
		nr := int(d.U32())
		if d.Err() != nil {
			return d.Err()
		}
		c.retireQueue = nil
		for i := 0; i < nr; i++ {
			c.retireQueue = append(c.retireQueue, int(d.I64()))
		}
		nq := int(d.U32())
		if d.Err() != nil {
			return d.Err()
		}
		for i := range c.retireQueued {
			c.retireQueued[i] = false
		}
		for i := 0; i < nq; i++ {
			s := d.I64()
			if d.Err() != nil {
				return d.Err()
			}
			if s < 0 || s >= int64(len(c.retireQueued)) {
				d.Invalid("retire-queued slot %d out of range (%d slots)", s, len(c.retireQueued))
				return d.Err()
			}
			c.retireQueued[s] = true
		}
		c.degradePending = d.Bool()
		c.degradedMode = d.Bool()
	}

	hasPower := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if hasPower != (c.cfg.Power != nil) {
		d.Invalid("power meter presence mismatch")
		return d.Err()
	}
	if c.cfg.Power != nil {
		if err := c.cfg.Power.RestoreFrom(d); err != nil {
			return err
		}
	}

	if c.cache != nil {
		if err := c.cache.RestoreFrom(d); err != nil {
			return err
		}
	}
	return d.Err()
}

// schemeJobByKind resolves a checkpoint kind tag to the controller's
// sentinel (nil for an unknown tag).
func (c *Controller) schemeJobByKind(k uint8) *schemeJob {
	switch k {
	case sjKindFill:
		return c.sjFill
	case sjKindWB:
		return c.sjWB
	case sjKindVictimRd:
		return c.sjVictimRd
	case sjKindProbe:
		return c.sjProbe
	case sjKindWasted:
		return c.sjWasted
	}
	return nil
}

func snapshotSubCopy(e *snap.Encoder, sc core.SubCopy) {
	e.U64(sc.Src)
	e.U64(sc.Dst)
	e.U64(sc.Bytes)
	e.I64(int64(sc.SubIndex))
	e.Bool(sc.Exchange)
}

func restoreSubCopy(d *snap.Decoder) core.SubCopy {
	var sc core.SubCopy
	sc.Src = d.U64()
	sc.Dst = d.U64()
	sc.Bytes = d.U64()
	sc.SubIndex = int(d.I64())
	sc.Exchange = d.Bool()
	return sc
}
