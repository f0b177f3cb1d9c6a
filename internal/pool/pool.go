// Package pool provides the bounded worker pool shared by everything
// that fans independent deterministic work out across cores: experiment
// sweeps, batch runs, and the multi-tenant control engine. Callers make
// results deterministic by writing into slot i of a pre-sized slice;
// completion order never matters.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers holds the process-wide worker-pool size; 0 means
// runtime.GOMAXPROCS(0).
var defaultWorkers atomic.Int64

// DefaultWorkers returns the worker-pool size used when none is given
// explicitly (runtime.GOMAXPROCS(0) unless overridden with
// SetDefaultWorkers).
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetDefaultWorkers overrides the process-wide worker-pool size for
// every pool user. n <= 0 restores the GOMAXPROCS default. Because pool
// tasks are deterministically seeded and fully self-contained, results
// are bit-identical for any worker count.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Runner executes independent tasks on a bounded worker pool. The zero
// value uses DefaultWorkers.
type Runner struct {
	// Workers bounds concurrent tasks; <= 0 means DefaultWorkers().
	Workers int
}

func (r Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return DefaultWorkers()
}

// Size returns how many workers ForEach runs n tasks on: Workers (or
// DefaultWorkers) capped at n, and at least 1.
func (r Runner) Size(n int) int {
	return max(1, min(r.workers(), n))
}

// ForEach runs fn(ctx, i) for every i in [0, n), at most r.Workers at a
// time. Callers make results deterministic by writing into slot i of a
// pre-sized slice — completion order never matters. The first error
// cancels the shared context, remaining queued tasks are skipped, and
// that first error (by task submission order, not completion time) is
// returned.
func (r Runner) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	return r.ForEachWorker(ctx, n, func(ctx context.Context, _, i int) error { return fn(ctx, i) })
}

// ForEachWorker is ForEach that also tells each task which worker, in
// [0, Size(n)), runs it. One worker runs its tasks one at a time, so
// per-worker scratch needs no locking.
func (r Runner) ForEachWorker(ctx context.Context, n int, fn func(ctx context.Context, worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := r.Size(n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, 0, i); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// firstErr keeps the error of the lowest-indexed failing task so the
	// reported failure is deterministic even when several tasks fail.
	var (
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
		cancel()
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := fn(ctx, w, i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
