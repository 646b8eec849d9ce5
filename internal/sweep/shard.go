package sweep

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"mcmnpu/internal/report"
	"mcmnpu/internal/workloads"
)

// The sharded grid: every scenario declares its individual points and
// the engine dispatches the flattened (scenario, point) units across
// the pool, heaviest first, so no single large scenario (the frontier
// sweep is the default grid's largest) holds the pool up. Results are assembled serially in scenario/point order,
// so the output is bit-for-bit identical to a serial run regardless of
// worker count.

// GridPlan is one prepared scenario: a number of independently runnable
// points plus a serial finisher that assembles the table after every
// point has completed.
type GridPlan struct {
	// Points is the number of independent units of work.
	Points int
	// Weight estimates the relative cost of point i; the dispatcher
	// starts heavier points first so the pool drains without a long
	// tail. nil means uniform. Only the ordering matters, not the
	// scale, and ordering never affects results — only wall time.
	Weight func(i int) float64
	// Run evaluates point i into state the plan captured at Prepare
	// time (typically rows[i]). It is called at most once per point,
	// concurrently with other points of this and other scenarios, so
	// anything it shares with them beyond its own slot (the
	// experiments' grid points share designs under a sync.Once) must be
	// synchronized.
	Run func(ctx context.Context, i int) error
	// Finish renders the table from the completed points. It runs
	// serially, in scenario order, only after every point of the
	// scenario succeeded.
	Finish func() (*report.Table, error)
}

// GridResult is the outcome of one scenario in a grid run.
type GridResult struct {
	Scenario  string
	Table     *report.Table
	Err       error
	ElapsedMs float64
}

// ShardedScenario is a grid scenario decomposed into engine-dispatchable
// points. Prepare runs serially before the fan-out: it compiles the
// shared read-only state every point uses (e.g. a DSE cost table) and
// returns the plan.
type ShardedScenario struct {
	Name    string
	Prepare func(ctx context.Context, cfg workloads.Config) (GridPlan, error)
}

// RunGridSharded executes the scenarios' points concurrently on the
// engine's workers. Per-scenario failures are recorded per-result
// rather than aborting the grid: a scenario's Err is its Prepare error,
// or the lowest-indexed point error (deterministic regardless of which
// worker hit it first). Only context cancellation stops the run early;
// scenarios left incomplete then carry the context's actual error.
// Results come back in scenario order, bit-for-bit identical to a
// 1-worker run.
//
// ElapsedMs measures each scenario's work time — Prepare plus the sum
// of its point runtimes plus Finish — not wall time: points of
// different scenarios interleave on the pool, so per-scenario wall time
// has no meaning here.
func (e *Engine) RunGridSharded(ctx context.Context, cfg workloads.Config, scenarios []ShardedScenario) []GridResult {
	out := make([]GridResult, len(scenarios))
	plans := make([]GridPlan, len(scenarios))
	workNs := make([]atomic.Int64, len(scenarios))

	type unit struct {
		sc, pt int
		weight float64
	}
	var units []unit
	for i, sc := range scenarios {
		out[i] = GridResult{Scenario: sc.Name}
		if err := context.Cause(ctx); err != nil {
			out[i].Err = err
			continue
		}
		start := time.Now()
		plan, err := sc.Prepare(ctx, cfg)
		workNs[i].Add(time.Since(start).Nanoseconds())
		if err != nil {
			out[i].Err = err
			continue
		}
		plans[i] = plan
		for p := 0; p < plan.Points; p++ {
			w := 1.0
			if plan.Weight != nil {
				w = plan.Weight(p)
			}
			units = append(units, unit{sc: i, pt: p, weight: w})
		}
	}
	// Heaviest-first dispatch (LPT): the stable sort keeps (scenario,
	// point) order on ties, so the dispatch order is deterministic too.
	sort.SliceStable(units, func(a, b int) bool { return units[a].weight > units[b].weight })

	pointErr := make([][]error, len(scenarios))
	pointRan := make([][]bool, len(scenarios))
	for i := range plans {
		if out[i].Err == nil {
			pointErr[i] = make([]error, plans[i].Points)
			pointRan[i] = make([]bool, plans[i].Points)
		}
	}
	_ = e.Each(ctx, len(units), func(k int) error {
		u := units[k]
		start := time.Now()
		pointErr[u.sc][u.pt] = plans[u.sc].Run(ctx, u.pt)
		workNs[u.sc].Add(time.Since(start).Nanoseconds())
		pointRan[u.sc][u.pt] = true
		// Point failures stay per-scenario; returning them would cancel
		// the other scenarios' points.
		return nil
	})

	for i := range scenarios {
		if out[i].Err != nil {
			continue
		}
		for p := 0; p < plans[i].Points; p++ {
			if err := pointErr[i][p]; err != nil {
				out[i].Err = err
				break
			}
			if !pointRan[i][p] {
				// Never dispatched: the context went down mid-grid.
				if err := context.Cause(ctx); err != nil {
					out[i].Err = err
				} else {
					out[i].Err = context.Canceled // unreachable in practice
				}
				break
			}
		}
		if out[i].Err != nil {
			continue
		}
		start := time.Now()
		t, err := plans[i].Finish()
		workNs[i].Add(time.Since(start).Nanoseconds())
		out[i].Table, out[i].Err = t, err
	}
	for i := range out {
		out[i].ElapsedMs = float64(workNs[i].Load()) / 1e6
	}
	return out
}
