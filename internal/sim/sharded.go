// The sharded half of the run loop: with Config.Channels > 1 the physical
// address space stripes across per-channel controllers (memctrl.Hub) and
// the simulation executes in parallel — one worker goroutine per channel —
// under an epoch-aligned cycle barrier.
//
// Determinism argument. Shards share no mutable state: migration is
// shard-local (the interleave granularity is a multiple of the macro page
// size, so a page never straddles channels) and the cross-channel hop is a
// fixed latency constant folded into each shard's own copy legs. Each
// shard's final state is therefore a pure function of the subsequence of
// trace records routed to it, in trace order — which the feeder preserves —
// and is independent of goroutine scheduling, GOMAXPROCS, and the barrier
// window size. The barrier exists to bound buffering and to give the feeder
// globally consistent points (exact record counts) for warmup resets and
// checkpoints; it never influences results.
package sim

import (
	"fmt"
	"sync"

	"heteromem/internal/memctrl"
	"heteromem/internal/trace"
)

// defaultBarrierWindow is the lockstep epoch, in trace cycles, unless a
// test picks the window. It only needs to be no smaller than the
// minimum cross-channel latency (the hop) for the lockstep reading of the
// barrier to hold; beyond that it purely trades barrier overhead against
// batch size.
const defaultBarrierWindow = 4096

// shardAccess is one pre-routed trace record: the shard-local address plus
// the original cycle and direction.
type shardAccess struct {
	local uint64
	cycle int64
	write bool
}

// shardWorkers runs each shard of a sharded hub on its own goroutine. The
// run loop's goroutine is the feeder: it pre-routes records into
// per-channel batches and hands them over at barrier-epoch boundaries (see
// feed and drain). Each worker owns its controller between handovers.
type shardWorkers struct {
	hub     *memctrl.Hub
	window  int64                // barrier epoch, in trace cycles
	work    []chan []shardAccess // one queue per worker
	errs    []error              // each worker's first access error
	batches [][]shardAccess      // routed records awaiting handover
	pending int                  // records across batches
	epoch   int64                // barrier epoch of the last routed record

	// barrier counts one Done per worker per handover, exited one per
	// worker when its queue closes.
	barrier, exited sync.WaitGroup
}

// startShardWorkers starts one worker per shard of hub. window is the
// barrier epoch in trace cycles (0 = the default, at least the hop). The
// caller must stop the workers on every return path.
func startShardWorkers(hub *memctrl.Hub, window int64) *shardWorkers {
	if window <= 0 {
		window = max(defaultBarrierWindow, hub.HopLatency())
	}
	n := hub.Channels()
	w := &shardWorkers{
		hub:     hub,
		window:  window,
		work:    make([]chan []shardAccess, n),
		errs:    make([]error, n),
		batches: make([][]shardAccess, n),
	}
	w.exited.Add(n)
	for i := range w.work {
		w.work[i] = make(chan []shardAccess, 1)
		go w.run(i)
	}
	return w
}

// run is shard i's worker loop: apply each handed-over batch in order,
// latching the first access error, and check in at the barrier.
func (w *shardWorkers) run(i int) {
	defer w.exited.Done()
	ctrl := w.hub.Shard(i)
	for batch := range w.work[i] {
		if w.errs[i] == nil {
			for _, a := range batch {
				if err := ctrl.Access(a.local, a.write, a.cycle); err != nil {
					w.errs[i] = err
					break
				}
			}
		}
		w.barrier.Done()
	}
}

// feed routes records [0, k) of b to their channels' batches. Barrier-epoch
// handovers happen per record, because they depend on trace cycles, not
// record counts: all shards drain one window before any shard sees the
// next.
func (w *shardWorkers) feed(b *trace.Batch, k int) error {
	for j := 0; j < k; j++ {
		cycle := int64(b.Cycle[j])
		if epoch := cycle / w.window; epoch != w.epoch {
			if err := w.drain(); err != nil {
				return err
			}
			w.epoch = epoch
		}
		ch, local := w.hub.Route(b.Addr[j])
		w.batches[ch] = append(w.batches[ch], shardAccess{local: local, cycle: cycle, write: b.Write[j]})
		w.pending++
	}
	return nil
}

// drain hands every pending batch to its worker and waits at the barrier.
// The WaitGroup is both the barrier and the memory fence: Wait happens
// after every worker's writes, so the feeder may then reuse the batch
// slices, read errs, and touch the shards itself. A nil receiver — a
// single channel, driven inline — has nothing to drain.
func (w *shardWorkers) drain() error {
	if w == nil || w.pending == 0 {
		return nil
	}
	w.barrier.Add(len(w.work))
	for i, in := range w.work {
		in <- w.batches[i]
	}
	w.barrier.Wait()
	for i, err := range w.errs {
		if err != nil {
			return fmt.Errorf("sim: channel %d: %w", i, err)
		}
		w.batches[i] = w.batches[i][:0]
	}
	w.pending = 0
	return nil
}

// stop closes the workers' queues and waits until every worker has exited,
// so no worker outlives the run or keeps its shard reachable.
func (w *shardWorkers) stop() {
	for _, in := range w.work {
		close(in)
	}
	w.exited.Wait()
}
