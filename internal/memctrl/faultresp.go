package memctrl

// Fault responses: instead of latching firstErr, the controller answers
// injected faults (internal/fault) with graceful degradation, in escalating
// order of severity:
//
//  1. bounded retry — a faulted DRAM burst or copy leg is rescheduled after
//     an exponential cycle-domain backoff; the faulted attempt's bus time
//     has already been paid.
//  2. abort-and-rollback — a swap whose copy traffic exhausts the retry
//     budget is unwound: already-moved data is copied back in reverse order
//     and the translation table is restored to its swap-start snapshot (the
//     P-bit protocol keeps every page reachable throughout).
//  3. slot retirement — an on-package frame that keeps faulting is taken
//     out of service at the next quiescent point: its data is evacuated to
//     a spare frame past Ω and the slot is pinned out of victim selection
//     forever, shrinking the effective N by one.
//  4. degraded mode — once the fault budget is exhausted, migration is
//     disabled entirely; the current mapping stays live and the machine
//     keeps running on a static (slower, but correct) configuration.
//
// Every injected fault is accounted to exactly one disposition (Retried,
// RolledBack, Retired, or Degraded), and Flush verifies the ledger balances
// against the injector's own count.

import (
	"fmt"

	"heteromem/internal/fault"
	"heteromem/internal/obs"
	"heteromem/internal/sched"
)

// copyVerdict is the decided response to one faulted copy leg.
type copyVerdict int

const (
	verdictRetry  copyVerdict = iota // reschedule the leg after backoff
	verdictAccept                    // treat the leg as delivered anyway
	verdictAbort                     // give up: roll back (or abandon the undo)
)

// account books one fault against its disposition.
func (c *Controller) account(p fault.Point, d fault.Disposition) {
	c.faultRep.Account(p, d)
}

// overDegradeBudget reports whether the total injected-fault count has
// crossed the configured degradation budget (0 disables the budget).
func (c *Controller) overDegradeBudget() bool {
	b := c.inj.DegradeBudget()
	return b > 0 && !c.degradedMode && !c.degradePending && c.inj.Faults() >= uint64(b)
}

// requestDegrade freezes migration as soon as the pipeline quiesces: now if
// nothing is in flight, otherwise once the current swap drains.
func (c *Controller) requestDegrade(cycle int64) {
	if c.degradedMode || c.degradePending {
		return
	}
	if c.mig != nil && (c.mig.SwapInFlight() || c.step != nil) {
		c.degradePending = true
		return
	}
	c.enterDegraded(cycle)
}

// enterDegraded permanently disables migration. The current mapping stays
// live — this is an observable mode change, not an error.
func (c *Controller) enterDegraded(cycle int64) {
	c.degradedMode = true
	c.degradePending = false
	if c.mig != nil {
		c.mig.Degrade()
	}
	c.inst.spans.Mark(obs.LaneFault, obs.MarkDegrade, cycle, c.inj.Faults(), 0, 0)
}

// canRetire reports whether slot s is a valid, not-yet-handled retirement
// candidate.
func (c *Controller) canRetire(s int) bool {
	if c.mig == nil || c.degradedMode || s < 0 || uint64(s) >= c.mig.Table().Slots() {
		return false
	}
	return !c.retireQueued[s] && !c.mig.Table().Retired(s)
}

// frameFault books one fault against an on-package frame and reports the
// cumulative count. Frames are machine-page indices below OnPackageSlots,
// so the ledger is a dense per-frame array.
func (c *Controller) frameFault(frame uint64) int {
	if frame >= uint64(len(c.frameFaults)) {
		return 0
	}
	c.frameFaults[frame]++
	return c.frameFaults[frame]
}

// queueRetire marks slot s for evacuation at the next quiescent point.
func (c *Controller) queueRetire(s int) {
	c.retireQueued[s] = true
	c.retireQueue = append(c.retireQueue, s)
}

// serviceQuiescent runs the deferred fault responses that need a quiescent
// migration pipeline: queued slot retirements first, then a pending
// degrade. Safe to call anywhere; it bails while a swap or rollback is in
// flight.
func (c *Controller) serviceQuiescent(cycle int64) {
	if c.inj == nil {
		return
	}
	if c.mig != nil && (c.mig.SwapInFlight() || c.step != nil) {
		return
	}
	for len(c.retireQueue) > 0 {
		s := c.retireQueue[0]
		c.retireQueue = c.retireQueue[1:]
		c.execRetire(s, cycle)
	}
	if c.degradePending {
		c.enterDegraded(cycle)
	}
}

// execRetire evacuates slot s synchronously (the ordered copies from
// core.Migrator.RetireSlot run back-to-back on their channels) and audits
// the resulting table. Evacuation copies are not fault-probed: a real
// controller would scrub them with a verified read-retry path.
func (c *Controller) execRetire(s int, cycle int64) {
	copies, err := c.mig.RetireSlot(s)
	if err != nil {
		c.fail(err)
		return
	}
	at := cycle
	for _, sc := range copies {
		srcOn := c.regionOfMachine(sc.Src)
		dstOn := c.regionOfMachine(sc.Dst)
		at = c.reserve(srcOn, sc.Src, at, c.subDuration(srcOn, sc.Bytes, false))
		at = c.reserve(dstOn, sc.Dst, at, c.subDuration(dstOn, sc.Bytes, false))
		if c.cfg.Power != nil {
			c.cfg.Power.Copy(srcOn, dstOn, sc.Bytes, false)
		}
		c.inst.copySubs.Inc()
		c.inst.copyBytes.Add(sc.Bytes)
	}
	spare, _ := c.mig.Table().ExiledTo(uint64(s))
	c.inst.spans.Span(obs.LaneFault, obs.SpanRetire, cycle, at, uint64(s), spare, 0)
	if !c.mig.CanSwap() && !c.degradedMode {
		// The retired slot was the empty row: the N-1/Live designs have no
		// structural room left to swap.
		c.enterDegraded(at)
	}
	c.audit(true)
}

// reserve books dur bus cycles for a bulk copy touching the given machine
// address, on the channel its macro page belongs to.
func (c *Controller) reserve(on bool, machine uint64, at, dur int64) int64 {
	page := machine / c.cfg.Geometry.MacroPageSize
	if on {
		return c.onDev.ReserveBus(int(page%uint64(c.cfg.Geometry.OnChannels)), at, dur)
	}
	return c.offDev.ReserveBus(int(page%uint64(c.cfg.Geometry.OffChannels)), at, dur)
}

// deviceFault decides the response to one faulted program-access burst;
// it is the scheduler's fault handler. The returned backoff applies only
// when retry is true.
func (c *Controller) deviceFault(r *sched.Request, region Region) (retry bool, backoff int64) {
	c.inst.spans.Mark(obs.LaneFault, obs.MarkFault, c.now, uint64(fault.PointDevice), r.Addr, uint64(r.Attempts))
	if c.degradedMode {
		// Static fallback mode absorbs faults: deliver what the frame holds.
		c.account(fault.PointDevice, fault.Degraded)
		return false, 0
	}
	if region == OnPackage && c.mig != nil {
		frame := r.Addr / c.cfg.Geometry.MacroPageSize
		if c.frameFault(frame) >= c.inj.RetireAfter() && c.canRetire(int(frame)) {
			// The frame keeps failing: deliver this access as-is and
			// evacuate the slot at the next quiescent point.
			c.account(fault.PointDevice, fault.Retired)
			c.queueRetire(int(frame))
			return false, 0
		}
	}
	if c.overDegradeBudget() {
		c.account(fault.PointDevice, fault.Degraded)
		c.requestDegrade(c.now)
		return false, 0
	}
	if r.Attempts < c.inj.RetryBudget() {
		c.account(fault.PointDevice, fault.Retried)
		backoff = c.retry.Delay(r.Attempts + 1)
		c.inst.spans.Span(obs.LaneFault, obs.SpanBackoff, c.now, c.now+backoff, uint64(fault.PointDevice), uint64(r.Attempts+1), 0)
		return true, backoff
	}
	// Retry budget exhausted on a single access: the frame is not coming
	// back. Deliver what it holds and stop trusting migration.
	c.account(fault.PointDevice, fault.Degraded)
	c.requestDegrade(c.now)
	return false, 0
}

// copyFaultVerdict classifies one faulted copy leg. isWrite/dst/dstOn
// describe the leg, attempts its prior faults, undo whether it belongs to a
// rollback.
func (c *Controller) copyFaultVerdict(isWrite bool, dst uint64, dstOn bool, attempts int, undo bool, cycle int64) copyVerdict {
	if c.degradedMode {
		c.account(fault.PointCopy, fault.Degraded)
		return verdictAccept
	}
	if isWrite && dstOn && c.mig != nil {
		frame := dst / c.cfg.Geometry.MacroPageSize
		if c.frameFault(frame) >= c.inj.RetireAfter() && c.canRetire(int(frame)) {
			c.account(fault.PointCopy, fault.Retired)
			c.queueRetire(int(frame))
			return verdictRetry // the leg still has to land; evacuation follows
		}
	}
	if c.overDegradeBudget() {
		c.account(fault.PointCopy, fault.Degraded)
		c.requestDegrade(cycle)
		return verdictRetry // let the swap finish, then freeze
	}
	if attempts < c.inj.RetryBudget() {
		c.account(fault.PointCopy, fault.Retried)
		return verdictRetry
	}
	if undo {
		// The undo path itself is failing: restore the mapping without the
		// remaining copies and freeze migration.
		c.account(fault.PointCopy, fault.Degraded)
		return verdictAbort
	}
	c.account(fault.PointCopy, fault.RolledBack)
	return verdictAbort
}

// retryLeg reschedules a faulted bulk leg after its backoff, reusing the
// leg's metadata record on a fresh (pooled) job.
func (c *Controller) retryLeg(meta *legMeta, j *sched.BulkJob) {
	meta.attempts++
	retry := c.newBulkJob()
	retry.Tag = j.Tag
	retry.Duration = j.Duration
	retry.Earliest = j.Done + c.retry.Delay(meta.attempts)
	retry.Meta = meta
	c.inst.spans.Span(obs.LaneFault, obs.SpanBackoff, j.Done, retry.Earliest, uint64(fault.PointCopy), uint64(meta.attempts), 0)
	c.freeBulkJob(j)
	if meta.isRead {
		c.submitBulk(c.regionOfMachine(meta.sub.Src), meta.sub.Src, retry)
	} else {
		c.submitBulk(meta.dstOn, meta.sub.Dst, retry)
	}
}

// stepFaultVerdict classifies one faulted step completion: redo re-runs the
// step's copies, abort rolls the swap back, neither accepts the step.
func (c *Controller) stepFaultVerdict(cycle int64) (redo, abort bool) {
	if c.degradedMode {
		c.account(fault.PointBulk, fault.Degraded)
		return false, false
	}
	if c.overDegradeBudget() {
		// Accept the completion, let the swap finish, then freeze.
		c.account(fault.PointBulk, fault.Degraded)
		c.requestDegrade(cycle)
		return false, false
	}
	if c.stepAttempts < c.inj.RetryBudget() {
		c.stepAttempts++
		c.account(fault.PointBulk, fault.Retried)
		return true, false
	}
	c.account(fault.PointBulk, fault.RolledBack)
	return false, true
}

// stepFault handles a faulted step completion on the background (N-1/Live)
// path; true means the normal StepDone chain must not run.
func (c *Controller) stepFault(cycle int64) bool {
	c.inst.spans.Mark(obs.LaneFault, obs.MarkFault, cycle, uint64(fault.PointBulk), 0, uint64(c.stepAttempts))
	redo, abort := c.stepFaultVerdict(cycle)
	if abort {
		c.abortSwap(c.step, cycle)
		return true
	}
	if !redo {
		return false
	}
	subs, err := c.mig.RestartStep()
	if err != nil {
		c.fail(err)
		c.step = nil
		return true
	}
	c.issueStep(&stepState{subsLeft: len(subs)}, subs, cycle)
	return true
}

// abortSwap starts the rollback of the in-flight swap: the current step's
// remaining legs become stale, the migrator hands back the ordered undo
// traffic, and the undo copies run one at a time (each is a mini-step, so
// their strict ordering — later steps first — is preserved).
func (c *Controller) abortSwap(st *stepState, cycle int64) {
	if st != nil {
		st.aborted = true
	}
	var partial []int
	if st != nil {
		partial = st.completed
	}
	undo, err := c.mig.AbortSwap(partial)
	if err != nil {
		c.fail(err)
		c.step = nil
		return
	}
	c.rollBegin = cycle
	c.undoQueue = undo
	c.step = nil
	c.startNextUndo(cycle)
}

// startNextUndo launches the next undo copy, or finishes the rollback when
// none remain.
func (c *Controller) startNextUndo(cycle int64) {
	if len(c.undoQueue) == 0 {
		c.finishRollback(cycle)
		return
	}
	next := c.undoQueue[:1]
	c.undoQueue = c.undoQueue[1:]
	c.issueStep(&stepState{subsLeft: 1, undo: true}, next, cycle)
}

// finishRollback restores the swap-start table snapshot once the undo
// traffic has drained.
func (c *Controller) finishRollback(cycle int64) {
	mru, _, _, _, _ := c.mig.CurrentPlan()
	if err := c.mig.RollbackDone(); err != nil {
		c.fail(err)
		c.step = nil
		return
	}
	c.step = nil
	c.inst.spans.Span(obs.LaneFault, obs.SpanRollback, c.rollBegin, cycle, mru, 0, 0)
	c.audit(true)
	c.serviceQuiescent(cycle)
}

// abandonUndo gives up on a rollback whose own undo copies keep faulting:
// the table snapshot is still restored (the mapping stays consistent; the
// simulator does not model the unrecoverable data) and migration freezes.
func (c *Controller) abandonUndo(cycle int64) {
	if c.step != nil {
		c.step.aborted = true
	}
	c.undoQueue = nil
	mru, _, _, _, _ := c.mig.CurrentPlan()
	if err := c.mig.RollbackDone(); err != nil {
		c.fail(err)
		c.step = nil
		return
	}
	c.step = nil
	c.inst.spans.Span(obs.LaneFault, obs.SpanRollback, c.rollBegin, cycle, mru, 1, 0)
	c.requestDegrade(cycle)
	c.audit(true)
	c.serviceQuiescent(cycle)
}

// stalledRollback is the synchronous (N design) version of
// abort-and-rollback: undo copies run back-to-back on their channels, each
// still subject to copy-leg fault probes; if the undo itself exhausts its
// retries the rollback is abandoned into degraded mode.
func (c *Controller) stalledRollback(partial []int, cycle int64) error {
	mru, _, _, _, _ := c.mig.CurrentPlan()
	undo, err := c.mig.AbortSwap(partial)
	if err != nil {
		return err
	}
	at := cycle
	abandoned := false
undoLoop:
	for _, sc := range undo {
		srcOn := c.regionOfMachine(sc.Src)
		dstOn := c.regionOfMachine(sc.Dst)
		rd := c.subDuration(srcOn, sc.Bytes, sc.Exchange)
		wd := c.subDuration(dstOn, sc.Bytes, sc.Exchange)
		attempts := 0
		legStart := at
		for {
			readDone := c.reserve(srcOn, sc.Src, legStart, rd)
			writeDone := c.reserve(dstOn, sc.Dst, readDone, wd)
			at = writeDone
			if c.inj == nil || !c.inj.Fault(fault.PointCopy) {
				break
			}
			c.inst.spans.Mark(obs.LaneFault, obs.MarkFault, at, uint64(fault.PointCopy), sc.Dst, uint64(attempts))
			switch c.copyFaultVerdict(true, sc.Dst, dstOn, attempts, true, at) {
			case verdictAbort:
				abandoned = true
				break undoLoop
			case verdictAccept:
				break
			case verdictRetry:
				attempts++
				legStart = at + c.retry.Delay(attempts)
				c.inst.spans.Span(obs.LaneFault, obs.SpanBackoff, at, legStart, uint64(fault.PointCopy), uint64(attempts), 0)
				continue
			}
			break
		}
		c.inst.copySubs.Inc()
		c.inst.copyBytes.Add(sc.Bytes)
	}
	if err := c.mig.RollbackDone(); err != nil {
		return err
	}
	c.inst.spans.Span(obs.LaneFault, obs.SpanRollback, cycle, at, mru, boolToU64(abandoned), 0)
	if abandoned {
		c.requestDegrade(at)
	}
	c.audit(true)
	if c.stallUntil < at {
		c.stallUntil = at
	}
	c.serviceQuiescent(at)
	return c.firstErr
}

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// FaultReport assembles the fault-handling ledger; nil when injection is
// off, so fault-free results stay byte-identical.
func (c *Controller) FaultReport() *fault.Report {
	if c.inj == nil {
		return nil
	}
	r := c.faultRep
	r.Injected = c.inj.Faults()
	if c.mig != nil {
		st := c.mig.Stats()
		r.SwapsRolledBack = st.SwapsRolledBack
		r.SlotsRetired = st.SlotsRetired
	}
	r.DegradedMode = c.degradedMode
	return &r
}

// checkFaultLedger verifies at flush time that every injected fault was
// accounted to exactly one disposition.
func (c *Controller) checkFaultLedger() {
	if c.inj == nil || c.firstErr != nil {
		return
	}
	rep := c.FaultReport()
	if !rep.Balanced(c.inj.Faults()) {
		c.fail(fmt.Errorf(
			"memctrl: fault ledger unbalanced: injected=%d (device=%d copy=%d bulk=%d) vs retried=%d rolledBack=%d retired=%d degraded=%d",
			c.inj.Faults(), rep.DeviceFaults, rep.CopyFaults, rep.BulkFaults,
			rep.Retried, rep.RolledBack, rep.Retired, rep.Degraded))
	}
}
