// The sharded half of the run loop: with Config.Channels > 1 the physical
// address space stripes across per-channel controllers (memctrl.Hub) and
// the simulation executes in parallel — one worker goroutine per channel.
// The run loop hands every worker the same read-only batch, the one
// batchBoundary cut; each worker simulates the records that stripe to its
// own channel and skips the rest. Two batch buffers alternate, so the loop
// decodes batch k+1 while the workers simulate batch k, and it waits for
// batch k before handing over k+1: at most one batch is in flight.
//
// Determinism argument. Shards share no mutable state: migration is
// shard-local (the interleave granularity is a multiple of the macro page
// size, so a page never straddles channels) and the cross-channel hop is a
// fixed latency constant folded into each shard's own copy legs. Each
// shard's final state is therefore a pure function of the subsequence of
// trace records routed to it, in trace order — which every worker walks
// its batch in — and is independent of goroutine scheduling, GOMAXPROCS,
// and where the batches are cut. The handover exists to bound buffering
// and to give the run loop globally consistent points (exact record counts)
// for warmup resets and checkpoints; it never influences results.
package sim

import (
	"fmt"
	"sync"

	"heteromem/internal/memctrl"
	"heteromem/internal/trace"
)

// shardWorkers runs each shard of a sharded hub on its own goroutine. The
// run loop's goroutine decodes the trace and hands each batch to every
// worker (see handover and drain). Each worker owns its controller, and
// reads the batch, between a handover and the drain that follows it.
type shardWorkers struct {
	hub  *memctrl.Hub
	work []chan *trace.Batch // one queue per worker
	errs []error             // each worker's first access error

	// done counts one Done per worker per handover, exited one per worker
	// when its queue closes.
	done, exited sync.WaitGroup
}

// startShardWorkers starts one worker per shard of hub. The caller must
// stop the workers on every return path.
func startShardWorkers(hub *memctrl.Hub) *shardWorkers {
	n := hub.Channels()
	w := &shardWorkers{
		hub:  hub,
		work: make([]chan *trace.Batch, n),
		errs: make([]error, n),
	}
	w.exited.Add(n)
	for i := range w.work {
		w.work[i] = make(chan *trace.Batch, 1)
		go w.run(i)
	}
	return w
}

// run is shard i's worker loop: apply each handed-over batch's channel-i
// records in order, stopping the batch at an access error. The error ends
// the run at the next drain, so no batch follows it.
func (w *shardWorkers) run(i int) {
	defer w.exited.Done()
	ctrl := w.hub.Shard(i)
	iv := w.hub.Interleave()
	for b := range w.work[i] {
		cycle, write := b.Cycle[:len(b.Addr)], b.Write[:len(b.Addr)]
		for j, a := range b.Addr {
			if iv.ChannelOf(a) != i {
				continue
			}
			if err := ctrl.Access(iv.Local(a), write[j], int64(cycle[j])); err != nil {
				w.errs[i] = err
				break
			}
		}
		w.done.Done()
	}
}

// handover waits for the batch in flight, then hands records [0, k) of b
// to every worker. The caller must not write b again until the next
// handover or drain has returned.
func (w *shardWorkers) handover(b *trace.Batch, k int) error {
	if err := w.drain(); err != nil {
		return err
	}
	b.Resize(k)
	w.done.Add(len(w.work))
	for _, in := range w.work {
		in <- b
	}
	return nil
}

// drain waits until the workers have simulated the batch in flight, if
// any. The WaitGroup is both the barrier and the memory fence: Wait
// happens after every worker's writes, so the run loop may then reuse the
// batch, read errs, and touch the shards itself. A nil receiver — a single
// channel, driven inline — has nothing to drain.
func (w *shardWorkers) drain() error {
	if w == nil {
		return nil
	}
	w.done.Wait()
	for i, err := range w.errs {
		if err != nil {
			return fmt.Errorf("sim: channel %d: %w", i, err)
		}
	}
	return nil
}

// stop closes the workers' queues and waits until every worker has exited,
// so no worker outlives the run or keeps its shard reachable. A worker
// finishes the batch in flight before it sees its queue closed.
func (w *shardWorkers) stop() {
	for _, in := range w.work {
		close(in)
	}
	w.exited.Wait()
}
