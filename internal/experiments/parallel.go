package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// workerPanic carries a panic out of a worker goroutine so it can be
// re-raised on the caller's goroutine with the worker's stack attached.
type workerPanic struct {
	value any
	stack []byte
}

// forEachIndex runs fn(i) for i in [0, n) on up to `workers` goroutines
// (0 = GOMAXPROCS). Each simulation owns its trace source and controller, so
// configurations are embarrassingly parallel; results are written by index,
// keeping output order deterministic regardless of scheduling.
//
// The first error stops further work and is returned. Cancelling ctx stops
// new work from being claimed and returns ctx.Err() (jobs already running
// finish first; simulations are not interruptible mid-record). A panic in
// fn is recovered on the worker, the remaining work is cancelled, and the
// panic is re-raised on the calling goroutine (with the worker stack in
// the value) once every worker has exited — a crash in one configuration
// must not leak goroutines or kill the process from a detached stack.
func forEachIndex(ctx context.Context, n, workers int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		panicked *workerPanic
		next     int
	)
	claim := func() int {
		if err := ctx.Err(); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return -1
		}
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || panicked != nil || next >= n {
			return -1
		}
		i := next
		next++
		return i
	}
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i < 0 {
					return
				}
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							buf := make([]byte, 64<<10)
							buf = buf[:runtime.Stack(buf, false)]
							mu.Lock()
							if panicked == nil {
								panicked = &workerPanic{value: r, stack: buf}
							}
							mu.Unlock()
							err = fmt.Errorf("experiments: worker panic: %v", r)
						}
					}()
					return fn(i)
				}()
				if err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(fmt.Sprintf("experiments: panic in parallel worker: %v\n\nworker stack:\n%s",
			panicked.value, panicked.stack))
	}
	return firstErr
}
