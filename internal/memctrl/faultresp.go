package memctrl

// Fault responses: instead of latching firstErr, the controller answers
// injected faults (internal/fault) with graceful degradation. One ladder
// decides the response for all three injection points, trying its rungs in
// this order:
//
//  1. absorbed — in degraded mode a fault is delivered as-is.
//  2. slot retirement — an on-package frame that keeps faulting is taken
//     out of service at the next quiescent point: its data is evacuated to
//     a spare frame past Ω and the slot is pinned out of victim selection
//     forever, shrinking the effective N by one.
//  3. freeze — once the fault budget is exhausted, migration is disabled
//     at the next quiescent point; the current mapping stays live and the
//     machine keeps running on a static (slower, but correct) configuration.
//  4. bounded retry — a faulted DRAM burst, copy leg or step is re-run
//     after an exponential cycle-domain backoff; the faulted attempt's bus
//     time has already been paid.
//  5. exhausted — a swap copy or step that spends its retry budget aborts
//     the swap: already-moved data is copied back in reverse order and the
//     translation table is restored to its swap-start snapshot (the P-bit
//     protocol keeps every page reachable throughout). An undo copy that
//     spends it abandons the rollback, and a program burst that spends it
//     freezes migration.
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

// rung is the step of the escalation ladder a fault stops at.
type rung int

const (
	rungAbsorbed  rung = iota // degraded mode: the operation counts as delivered
	rungRetire                // the frame keeps faulting: its slot is queued for retirement
	rungFreeze                // the fault budget is spent: migration freezes once quiescent
	rungRetry                 // within the retry budget: the operation is re-run
	rungExhausted             // the retry budget is spent: the caller gives up
)

// ladder decides and books the response to one injected fault at point p,
// for program bursts, copy legs and step completions alike. It marks the
// fault on the span trace, walks the rungs in order, and books the fault's
// disposition at the rung it stops at: Degraded when absorbed or frozen,
// Retired, Retried, or the caller's exhausted disposition. addr is the
// faulted operation's address (0 for a step); onFrame says the operation
// wrote the on-package frame addr falls in, which may then be retired;
// attempts counts the operation's earlier faults.
func (c *Controller) ladder(p fault.Point, addr uint64, onFrame bool, attempts int, exhausted fault.Disposition, cycle int64) rung {
	c.inst.spans.Mark(obs.LaneFault, obs.MarkFault, cycle, uint64(p), addr, uint64(attempts))
	frame := addr / c.cfg.Geometry.MacroPageSize
	switch {
	case c.degradedMode:
		c.faultRep.Account(p, fault.Degraded)
		return rungAbsorbed
	case onFrame && c.mig != nil && c.frameFault(frame) >= c.inj.RetireAfter() && c.canRetire(int(frame)):
		c.faultRep.Account(p, fault.Retired)
		c.retireQueued[frame] = true
		c.retireQueue = append(c.retireQueue, int(frame))
		return rungRetire
	case c.overDegradeBudget():
		c.faultRep.Account(p, fault.Degraded)
		c.requestDegrade(cycle)
		return rungFreeze
	case attempts < c.inj.RetryBudget():
		c.faultRep.Account(p, fault.Retried)
		return rungRetry
	}
	c.faultRep.Account(p, exhausted)
	return rungExhausted
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
		at, _ = c.runCopy(sc, at, false, fault.Degraded)
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

// deviceFault is the schedulers' fault handler: it answers one faulted
// program-access burst. A retried burst is served again after the returned
// backoff; on every other rung the access delivers what the frame holds.
func (c *Controller) deviceFault(r *sched.Request) (retry bool, backoff int64) {
	switch c.ladder(fault.PointDevice, r.Addr, r.OnPkg, r.Attempts, fault.Degraded, c.now) {
	case rungRetry:
		backoff = c.retry.Delay(r.Attempts + 1)
		c.inst.spans.Span(obs.LaneFault, obs.SpanBackoff, c.now, c.now+backoff, uint64(fault.PointDevice), uint64(r.Attempts+1), 0)
		return true, backoff
	case rungExhausted:
		// One access spent its retries: the frame is not coming back, so
		// stop trusting migration.
		c.requestDegrade(c.now)
	}
	return false, 0
}

// retryLeg reschedules a faulted bulk leg after its backoff, reusing the
// leg's metadata record on a fresh (pooled) job.
func (c *Controller) retryLeg(meta *legMeta, j *sched.BulkJob) {
	meta.attempts++
	earliest := j.Done + c.retry.Delay(meta.attempts)
	c.inst.spans.Span(obs.LaneFault, obs.SpanBackoff, j.Done, earliest, uint64(fault.PointCopy), uint64(meta.attempts), 0)
	on, machine := meta.dstOn, meta.sub.Dst
	if meta.isRead {
		on, machine = c.regionOfMachine(meta.sub.Src), meta.sub.Src
	}
	c.submitBulk(on, machine, j.Tag, j.Duration, earliest, meta)
	c.jobs.put(j)
}

// abortSwap starts the rollback of the in-flight background swap: the
// current step's remaining legs become stale, the migrator hands back the
// ordered undo traffic, and the undo copies run one at a time (each is a
// mini-step, so their strict ordering — later steps first — is preserved).
func (c *Controller) abortSwap(st *stepState, cycle int64) {
	var partial []int
	if st != nil {
		st.aborted = true
		partial = st.completed
	}
	undo, err := c.mig.AbortSwap(partial)
	c.step = nil
	if err != nil {
		c.fail(err)
		return
	}
	c.rollBegin = cycle
	c.undoQueue = undo
	c.startNextUndo(cycle)
}

// startNextUndo launches the next undo copy, or finishes the rollback when
// none remain.
func (c *Controller) startNextUndo(cycle int64) {
	if len(c.undoQueue) == 0 {
		c.finishRollback(cycle, false)
		return
	}
	next := c.undoQueue[:1]
	c.undoQueue = c.undoQueue[1:]
	c.issueStep(&stepState{subsLeft: 1, undo: true}, next, cycle)
}

// finishRollback ends the background rollback once its undo traffic has
// drained, or abandons it, dropping the undo copies still queued, when one
// of them spent its retries.
func (c *Controller) finishRollback(cycle int64, abandoned bool) {
	c.undoQueue = nil
	c.step = nil
	if err := c.endRollback(c.rollBegin, cycle, abandoned); err != nil {
		c.fail(err)
		return
	}
	c.serviceQuiescent(cycle)
}

// stalledRollback is the synchronous (N design) version of
// abort-and-rollback: undo copies run back-to-back on their channels, each
// still probed; if one spends its retries the rollback is abandoned.
func (c *Controller) stalledRollback(partial []int, cycle int64) error {
	undo, err := c.mig.AbortSwap(partial)
	if err != nil {
		return err
	}
	at, landed := cycle, true
	for _, sc := range undo {
		if at, landed = c.runCopy(sc, at, true, fault.Degraded); !landed {
			break
		}
	}
	if err := c.endRollback(cycle, at, !landed); err != nil {
		return err
	}
	c.stallUntil = max(c.stallUntil, at)
	c.serviceQuiescent(at)
	return c.firstErr
}

// endRollback books the end of every rollback, background or synchronous:
// the swap-start table snapshot is restored and the rollback span recorded.
// An abandoned rollback restores the snapshot too, since the mapping must
// stay consistent and the simulator does not model the lost data, and then
// freezes migration.
func (c *Controller) endRollback(begin, end int64, abandoned bool) error {
	mru, _, _, _, _ := c.mig.CurrentPlan()
	if err := c.mig.RollbackDone(); err != nil {
		return err
	}
	var marker uint64
	if abandoned {
		marker = 1
	}
	c.inst.spans.Span(obs.LaneFault, obs.SpanRollback, begin, end, mru, marker, 0)
	if abandoned {
		c.requestDegrade(end)
	}
	c.audit(true)
	return nil
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
