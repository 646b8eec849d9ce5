package experiments

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/sweep"
	"mcmnpu/internal/workloads"
)

// renderResults flattens a grid run into one string: scenario order,
// errors and full table bytes all participate in the comparison.
func renderResults(t *testing.T, results []sweep.GridResult) string {
	t.Helper()
	var sb strings.Builder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("scenario %s failed: %v", r.Scenario, r.Err)
		}
		sb.WriteString(r.Scenario)
		sb.WriteString("\n")
		r.Table.Render(&sb)
	}
	return sb.String()
}

// runSharded runs the grid on a fresh engine and returns its rendered
// output and the engine's cost-cache counters.
func runSharded(t *testing.T, workers int) (string, costmodel.CacheStats) {
	t.Helper()
	eng := sweep.New(workers)
	out := renderResults(t, eng.RunGridSharded(context.Background(), workloads.DefaultConfig(), ShardedGrid(eng)))
	return out, eng.Cache().Stats()
}

// TestShardedGridSerialParallelIdentical: bit-for-bit identical output
// at every worker count — the determinism contract the sharded
// dispatch must keep — and the serial run's exact cost-cache counts.
// Runs under `make race`, so the worker fan-out is also checked for
// data races.
func TestShardedGridSerialParallelIdentical(t *testing.T) {
	want, wantStats := runSharded(t, 1)
	for _, workers := range []int{2, 8, 32} {
		got, stats := runSharded(t, workers)
		if got != want {
			t.Errorf("workers=%d output diverged from serial:\n got:\n%s\nwant:\n%s", workers, got, want)
		}
		if stats != wantStats {
			t.Errorf("workers=%d cost-cache stats %+v, serial %+v", workers, stats, wantStats)
		}
	}
}

// TestShardedGridParallelEfficiency asserts the point-level sharding
// actually buys wall time: 8 workers must finish the grid in under
// half the 1-worker time. Skipped under -short and on hosts with fewer
// than 8 CPUs, where the workers cannot run concurrently and the
// ratio measures the scheduler, not the decomposition; the bench
// lane's scaling gate enforces the committed ratios on CI's multi-core
// runners.
func TestShardedGridParallelEfficiency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	if n := runtime.NumCPU(); n < 8 {
		t.Skipf("host has %d CPUs; need >= 8 to observe parallel speedup", n)
	}
	wall := func(workers int) time.Duration {
		eng := sweep.New(workers)
		start := time.Now()
		for _, r := range eng.RunGridSharded(context.Background(), workloads.DefaultConfig(), ShardedGrid(eng)) {
			if r.Err != nil {
				t.Fatalf("scenario %s failed: %v", r.Scenario, r.Err)
			}
		}
		return time.Since(start)
	}
	serial := wall(1)
	parallel := wall(8)
	if parallel >= serial/2 {
		t.Errorf("8-worker grid took %v vs %v serial (%.2fx); want < 0.5x",
			parallel, serial, float64(parallel)/float64(serial))
	}
}

// runPlan runs one plan alone through RunGridSharded at one worker — the
// path every grid scenario takes — and returns the typed rows it
// filled.
func runPlan[R any](t *testing.T, plan func(*sweep.Engine, workloads.Config) (sweep.GridPlan, []R)) []R {
	t.Helper()
	eng := sweep.New(1)
	var rows []R
	res := eng.RunGridSharded(context.Background(), workloads.DefaultConfig(), []sweep.ShardedScenario{{
		Name: "plan",
		Prepare: func(_ context.Context, cfg workloads.Config) (sweep.GridPlan, error) {
			p, r := plan(eng, cfg)
			rows = r
			return p, nil
		},
	}})
	if err := res[0].Err; err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestSelectGridKeepsGridOrder(t *testing.T) {
	var got []string
	for _, sc := range SelectGrid(nil, "tolerance", "nosuch", "cameras") {
		got = append(got, sc.Name)
	}
	if strings.Join(got, ",") != "cameras,tolerance" {
		t.Errorf("SelectGrid = %v, want [cameras tolerance]", got)
	}
}

func TestLcstrSweepTightensFeasibility(t *testing.T) {
	rows := runPlan(t, lcstrPlan)
	if len(rows) != len(DefaultLcstrPoints) {
		t.Fatalf("rows = %d, want %d", len(rows), len(DefaultLcstrPoints))
	}
	// Loosening the constraint never loses feasibility, and the paper's
	// 85 ms operating point is feasible.
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Feasible && !rows[i].Feasible {
			t.Errorf("Lcstr %.0f ms feasible but looser %.0f ms is not",
				DefaultLcstrPoints[i-1], DefaultLcstrPoints[i])
		}
	}
	for i, l := range DefaultLcstrPoints {
		if l == 85 && !rows[i].Feasible {
			t.Error("Het(2) must be feasible at the paper's 85 ms")
		}
	}
}
