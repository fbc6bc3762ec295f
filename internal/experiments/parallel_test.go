package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachIndexCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 5, 100} {
			var hits sync.Map
			var count atomic.Int64
			err := forEachIndex(context.Background(), n, workers, func(i int) error {
				if _, dup := hits.LoadOrStore(i, true); dup {
					return fmt.Errorf("index %d visited twice", i)
				}
				count.Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			if got := count.Load(); got != int64(n) {
				t.Fatalf("workers=%d n=%d: visited %d indices", workers, n, got)
			}
		}
	}
}

func TestForEachIndexWorkersExceedN(t *testing.T) {
	// More workers than work items must not deadlock, leak, or double-run.
	var count atomic.Int64
	if err := forEachIndex(context.Background(), 3, 100, func(i int) error {
		count.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 3 {
		t.Fatalf("ran %d of 3 items", count.Load())
	}
}

func TestForEachIndexErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	var after atomic.Int64
	err := forEachIndex(context.Background(), 1000, 4, func(i int) error {
		if i == 17 {
			return sentinel
		}
		after.Add(1)
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the sentinel error", err)
	}
	// The error must cancel the remaining work: with 4 workers, only a
	// handful of already-claimed indices may still finish.
	if after.Load() >= 1000-1 {
		t.Fatalf("error did not stop the sweep: %d items ran", after.Load())
	}
}

func TestForEachIndexFirstErrorWins(t *testing.T) {
	// Concurrent failures: exactly one error must surface, and it must be
	// one of the injected ones (not a data-race hybrid).
	errA := errors.New("a")
	errB := errors.New("b")
	err := forEachIndex(context.Background(), 100, 8, func(i int) error {
		switch i % 2 {
		case 0:
			return errA
		default:
			return errB
		}
	})
	if !errors.Is(err, errA) && !errors.Is(err, errB) {
		t.Fatalf("got %v, want errA or errB", err)
	}
}

func TestForEachIndexFirstErrorWinsOrdered(t *testing.T) {
	// Sequenced multi-error behavior: errA is recorded strictly before errB
	// is even returned, so forEachIndex must surface errA and drop errB —
	// the first error wins and later ones are discarded, not merged or
	// raced. Under -race this also pins that the firstErr slot is written
	// without a data race.
	errA := errors.New("first failure")
	errB := errors.New("later failure")
	aReturned := make(chan struct{})
	err := forEachIndex(context.Background(), 3, 2, func(i int) error {
		switch i {
		case 0:
			close(aReturned)
			return errA
		case 1:
			<-aReturned
			// errA's worker only has to finish one mutex-guarded store
			// before errB arrives; give it overwhelming margin.
			time.Sleep(300 * time.Millisecond)
			return errB
		default:
			t.Errorf("index %d claimed after two failures", i)
			return nil
		}
	})
	if !errors.Is(err, errA) {
		t.Fatalf("got %v, want the first error %v", err, errA)
	}
	if errors.Is(err, errB) {
		t.Fatalf("later error leaked into the result: %v", err)
	}
}

func TestForEachIndexCancelMidClaim(t *testing.T) {
	// Workers whose current job finishes cleanly after the context is
	// cancelled must stop at their next claim and surface ctx.Err() —
	// not nil, and not any error a pending job might have produced later.
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := forEachIndex(ctx, 10, 2, func(i int) error {
		ran.Add(1)
		cancel()
		<-ctx.Done() // both in-flight jobs finish (successfully) post-cancel
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want ctx.Err() (context.Canceled)", err)
	}
	if n := ran.Load(); n > 2 {
		t.Fatalf("%d jobs ran after a mid-sweep cancel with 2 workers", n)
	}
}

func TestForEachIndexSerialPathError(t *testing.T) {
	sentinel := errors.New("serial")
	var ran int
	err := forEachIndex(context.Background(), 10, 1, func(i int) error {
		ran++
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
	if ran != 4 {
		t.Fatalf("serial path ran %d items after the error, want exactly 4", ran)
	}
}

func TestForEachIndexPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, "kaboom-42") {
					t.Fatalf("workers=%d: panic value lost: %q", workers, msg)
				}
				if workers > 1 && !strings.Contains(msg, "worker stack") {
					t.Fatalf("workers=%d: worker stack missing from panic: %q", workers, msg)
				}
			}()
			_ = forEachIndex(context.Background(), 50, workers, func(i int) error {
				if i == 10 {
					panic("kaboom-42")
				}
				return nil
			})
		}()
	}
}

// TestForEachIndexPanicCancelsRemainingWork gates every item after the
// panicking one on a channel that item closes as it panics, so no other
// worker can drain the sweep while the panicking worker is descheduled;
// the sweep is large enough that a straggler released by the close cannot
// drain it before the panic is recorded either.
func TestForEachIndexPanicCancelsRemainingWork(t *testing.T) {
	const n = 1_000_000
	var after atomic.Int64
	gate := make(chan struct{})
	func() {
		defer func() { _ = recover() }()
		_ = forEachIndex(context.Background(), n, 4, func(i int) error {
			if i == 5 {
				defer close(gate)
				panic("stop")
			}
			if i > 5 {
				<-gate
			}
			after.Add(1)
			return nil
		})
	}()
	if after.Load() >= n-1 {
		t.Fatalf("panic did not cancel the sweep: %d items ran", after.Load())
	}
}

func TestForEachIndexContextCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := forEachIndex(ctx, 10000, workers, func(i int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if n := ran.Load(); n >= 10000 {
			t.Fatalf("workers=%d: cancellation did not stop the sweep (%d ran)", workers, n)
		}
	}
}

func TestForEachIndexPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := forEachIndex(ctx, 100, 4, func(i int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("pre-cancelled context still ran %d jobs", ran.Load())
	}
}
