// Package sweep is the parallel execution engine: a bounded worker pool
// with a shared layer-cost cache and a store of Algorithm 1 plans. It
// runs the experiment grids (camera count, temporal depth, NoP
// bandwidth, mesh size, frontier, scheduler tolerance, DSE Lcstr —
// each point an independent unit of work), and its Each fans out the
// scenario runner's trace windows and the pareto explorer's designs.
// Workers are bounded, honor context cancellation, and never outlive
// the call that spawned them. The cache and the plans live as long as
// the engine: each CLI run makes its own engine, and a serving Service
// keeps one for its whole life.
package sweep

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/sched"
)

// Engine is a bounded worker pool. The zero value is not useful; use
// New. An Engine carries no per-call state — only its parallelism, a
// shared layer-cost cache and a store of Algorithm 1 plans — and is
// safe for concurrent use.
type Engine struct {
	workers int
	cache   *costmodel.Cache
	plans   *sched.Plans
}

// New returns an engine with the given parallelism; workers <= 0 means
// runtime.NumCPU(). The engine owns a layer-cost cache shared by
// everything that runs on it — Table I's cost table and every point of
// a sharded grid (RunGridSharded) — so repeated (layer, accel)
// evaluations across Table I pins, Lcstr points and grid points are
// memoized once per engine, with no cross-engine contention on a
// package-global store. It also owns a bounded plan store
// (sched.Plans), so a design prepared again with only its NoP changed
// (scenario.PrepareOn) reruns only the NoP-reading half of Algorithm 1.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Engine{workers: workers, cache: costmodel.NewCache(), plans: sched.NewPlans()}
}

// Workers returns the engine's parallelism.
func (e *Engine) Workers() int { return e.workers }

// Cache returns the engine's shared layer-cost cache (never nil for
// engines built by New).
func (e *Engine) Cache() *costmodel.Cache { return e.cache }

// Plans returns the engine's plan store (never nil for engines built
// by New).
func (e *Engine) Plans() *sched.Plans { return e.plans }

// Each runs fn(i) for every i in [0, n) across the engine's workers.
// Indices are dispatched through a channel, so long and short items
// interleave without static partitioning skew. The first error (or the
// context's error, checked before each item) cancels the remaining
// work; already-running items finish. Each blocks until all workers
// have returned. A panic in fn is recovered on its worker and fails the
// run like a returned error: fn runs on goroutines of Each's own, where
// an unrecovered panic would end the process.
//
// n <= 0 is an empty run, not an error: it returns nil on a live
// context. A cancelled context still surfaces its error — callers use
// Each as their cancellation check, even with no work.
//
//perf:hot — the worker-pool dispatch loop every parallel evaluation rides on
func (e *Engine) Each(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return nil
	}
	// run stops the dispatch on the first error or the caller's
	// cancellation.
	run, cancel := context.WithCancel(ctx)
	defer cancel()

	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := 0; i < n; i++ {
			select {
			case idx <- i:
			case <-run.Done():
				return
			}
		}
	}()

	workers := e.workers
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				// The caller's ctx is read directly: its Done channel
				// closes before the cancellation reaches run, and items
				// started in that window would ignore it.
				if err := cmp.Or(ctx.Err(), run.Err()); err != nil {
					fail(err)
					return
				}
				if err := call(fn, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// call runs fn(i), converting a panic into an error that names the
// item and carries the panicking goroutine's stack.
func call(fn func(i int) error, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("sweep: item %d panicked: %v\n%s", i, v, debug.Stack())
		}
	}()
	return fn(i)
}

// Map runs fn(i) for every i in [0, n) and collects the results in
// index order. A cancelled or failed run returns the partial slice
// (unfilled entries are zero values) alongside the error.
func Map[T any](ctx context.Context, e *Engine, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := e.Each(ctx, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
