package sweep

import (
	"context"
	"sync"

	"mcmnpu/internal/dnn"
	"mcmnpu/internal/dse"
)

// Explore is the parallel counterpart of (*dse.Space).Best: it fans the
// candidate masks of one (chiplets, wsCount) pin across the engine's
// workers and reduces to the same best configuration as the serial
// scan, bit-for-bit, regardless of worker count or completion order.
//
// Determinism: dse.Better is strict, so the serial scan keeps the
// earliest candidate among ties. Workers record each candidate's index;
// the reduce re-applies dse.Better in index order by preferring the
// lower index whenever neither result beats the other.
func (e *Engine) Explore(ctx context.Context, trunks []*dnn.Graph, chiplets, wsCount int, lcstrMs float64) (dse.Result, error) {
	space := dse.NewCachedSpace(trunks, chiplets, lcstrMs, e.cache)
	return e.ExploreSpace(ctx, space, wsCount)
}

// ExploreSpace runs the parallel search over a prepared space (shared,
// read-only — see dse.Space). Each worker folds its share of the
// candidate masks into its own dse.Scanner (reusable scratch, so the
// hot loop is table reads with no allocation and no shared state), and
// the scanners merge afterwards. The fold rule is a total order, so
// the merged best is the serial scan's best regardless of worker count
// or which worker saw which index.
//
//perf:hot — the candidate-mask fold; the ROADMAP's parallel-scaling work starts here
func (e *Engine) ExploreSpace(ctx context.Context, space *dse.Space, wsCount int) (dse.Result, error) {
	candidates := space.Candidates(wsCount)

	// Scanners accumulate state, so every one ever created is tracked
	// here for the final merge — the sync.Pool only recycles them
	// between items, it is not the source of truth.
	var (
		mu       sync.Mutex
		scanners []*dse.Scanner
	)
	pool := sync.Pool{New: func() any {
		sc := space.NewScanner(wsCount)
		mu.Lock()
		scanners = append(scanners, sc)
		mu.Unlock()
		return sc
	}}
	err := e.Each(ctx, len(candidates), func(i int) error {
		sc := pool.Get().(*dse.Scanner) //lint:allow pooldiscipline -- scanners accumulate across Gets by design: every one is registered in `scanners` at creation and merged in index order after the pool drains
		sc.Scan(candidates[i], i)
		pool.Put(sc)
		return nil
	})
	if err != nil {
		return dse.Result{}, err
	}

	root := space.NewScanner(wsCount)
	for _, sc := range scanners {
		root.Merge(sc)
	}
	return root.Finish(len(candidates)), nil
}

// TableI is the paper's Table I: the four configuration rows (OS-only,
// WS-only, Het(2), Het(4)) on the 9-chiplet trunks quadrant. The pins
// run in sequence — the two non-trivial ones (Het(2), Het(4)) each fan
// their 2^n masks across the full pool, so an outer fan-out would only
// oversubscribe the workers. The all-WS row violates the latency
// constraint; the paper reports it anyway as a bound.
func (e *Engine) TableI(ctx context.Context, trunks []*dnn.Graph, lcstrMs float64) ([]dse.TableIRow, error) {
	space := dse.NewCachedSpace(trunks, 9, lcstrMs, e.cache)
	wsCounts := []int{0, 9, 2, 4}
	results := make([]dse.Result, len(wsCounts))
	for i, ws := range wsCounts {
		r, err := e.ExploreSpace(ctx, space, ws)
		if err != nil {
			return nil, err
		}
		results[i] = r
	}
	results[1].Name = "WS"
	return dse.TableIRows(results), nil
}
