// Package parallel is the execution layer of the synthesis engine: a
// small bounded worker pool used by the embarrassingly parallel
// workloads of the reproduction — Monte-Carlo mismatch sampling
// (mc.RunOffset), process-corner verification (core.CornerSweep), the
// two verification passes of every core.Synthesize run, the four
// Table-1 parasitic-awareness cases (core.SynthesizeAll) and the
// proposed-vs-traditional flow comparison (core.CompareFlows).
//
// The pool guarantees, in order of importance for the callers:
//
//   - Bounded concurrency: at most `workers` tasks run at once, each on
//     its own goroutine; excess tasks queue.
//   - Deterministic reduction: results come back indexed by task, so a
//     caller that folds them in index order gets bit-identical floating-
//     point sums regardless of worker count or scheduling.
//   - First-error propagation: the failing task with the lowest index
//     wins, the shared context is cancelled, and tasks that have not
//     started yet are skipped.
//   - Panic containment: a panic inside a task is recovered and
//     surfaced as a *PanicError instead of tearing down the process.
//
// Tasks receive a context derived from the caller's; long tasks should
// poll it. The pool itself never leaks goroutines: MapN returns only
// after every started task has finished.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError reports a panic recovered inside a worker task.
type PanicError struct {
	Index int    // task index that panicked
	Value any    // the recovered value
	Stack []byte // stack of the panicking goroutine
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// MapN runs fn(ctx, i) for i in [0, n) on at most `workers` goroutines
// (workers <= 0 means GOMAXPROCS) and returns the results indexed by i.
//
// The first failing task (lowest index among failures) cancels the
// derived context and its error is returned; tasks that have not started
// by then are skipped and keep the zero result. If the parent context is
// cancelled and no task failed, the context's error is returned. The
// returned slice always has length n so callers can use the successful
// prefix/suffix entries even on error.
func MapN[R any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (R, error)) ([]R, error) {
	results := make([]R, n)
	if n == 0 {
		return results, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64 // next task index to claim
		mu       sync.Mutex
		firstIdx = -1
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstIdx == -1 || i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		cancel()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if ctx.Err() != nil {
					return // cancelled: skip everything not yet started
				}
				r, err := protect(ctx, i, fn)
				if err != nil {
					fail(i, err)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return results, firstErr
	}
	return results, ctx.Err()
}

// protect runs one task with panic recovery.
func protect[R any](ctx context.Context, i int, fn func(ctx context.Context, i int) (R, error)) (r R, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}

// Map applies fn to every item of items under the MapN contract and
// returns the mapped values in item order.
func Map[T, R any](ctx context.Context, workers int, items []T, fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	return MapN(ctx, workers, len(items), func(ctx context.Context, i int) (R, error) {
		return fn(ctx, i, items[i])
	})
}

// Do runs n result-less tasks under the MapN contract.
func Do(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	_, err := MapN(ctx, workers, n, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return err
}
