package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/report"
	"mcmnpu/internal/scenario"
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
func runPlan[R any](t *testing.T, plan func(*gridRun, workloads.Config) (sweep.GridPlan, []R)) []R {
	t.Helper()
	eng := sweep.New(1)
	var rows []R
	res := eng.RunGridSharded(context.Background(), workloads.DefaultConfig(), []sweep.ShardedScenario{{
		Name: "plan",
		Prepare: func(_ context.Context, cfg workloads.Config) (sweep.GridPlan, error) {
			p, r := plan(newGridRun(eng), cfg)
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

// TestGridBuildsEachDesignOnce runs mesh-size and frontier as one grid
// run on two workers. mesh-size's four points are frontier's four OS
// points, so the run must build only frontier's eight designs: its
// cost-cache counters equal a frontier-only run's (500 hits, 609
// misses and entries; building the shared designs twice read 822
// hits), and both tables equal their separate runs byte for byte.
func TestGridBuildsEachDesignOnce(t *testing.T) {
	run := func(names ...string) (string, costmodel.CacheStats) {
		eng := sweep.New(2)
		out := renderResults(t, eng.RunGridSharded(context.Background(), workloads.DefaultConfig(), SelectGrid(eng, names...)))
		return out, eng.Cache().Stats()
	}
	mesh, _ := run("mesh-size")
	frontier, frontierStats := run("frontier")
	both, bothStats := run("mesh-size", "frontier")
	if both != mesh+frontier {
		t.Errorf("mesh-size and frontier in one run:\n%s\nwant the separate runs:\n%s%s", both, mesh, frontier)
	}
	if bothStats != frontierStats {
		t.Errorf("mesh-size and frontier in one run made cost-cache counters %+v, frontier alone %+v", bothStats, frontierStats)
	}
}

// TestDefaultGridDesigns: the default grid's 28 schedule-building points
// name 20 designs. cameras/8, temporal-depth/12, tolerance/5%,
// nop-bandwidth's paper point and mesh-size/6x6 are one design, and
// mesh-size's other points are frontier's OS points. nop-bandwidth's
// other three points are that design under other NoPs, so they finish
// one plan in the engine's store.
func TestDefaultGridDesigns(t *testing.T) {
	eng := sweep.New(2)
	g := newGridRun(eng)
	renderResults(t, eng.RunGridSharded(context.Background(), workloads.DefaultConfig(), g.scenarios()))
	if n := len(g.designs); n != 20 {
		t.Errorf("the default grid named %d designs, want 20", n)
	}
	if n := eng.Plans().Len(); n != 1 {
		t.Errorf("the default grid kept %d plans, want 1", n)
	}
}

// TestGridDesignErrorsNameTheirPoint gives two points of one grid run
// the same invalid design under different names, in one plan and
// across two plans: a failed design is not shared, so each point's
// error names its own spec.
func TestGridDesignErrorsNameTheirPoint(t *testing.T) {
	specs := func(names ...string) []scenario.Spec {
		out := make([]scenario.Spec, len(names))
		for i, n := range names {
			out[i] = scenario.Spec{Name: n, Package: "mesh:0x0"}
		}
		return out
	}
	for _, workers := range []int{1, 2} {
		eng := sweep.New(workers)
		g := newGridRun(eng)
		var planRows [][]string
		plan := func(name string, sps []scenario.Spec) sweep.ShardedScenario {
			return sweep.ShardedScenario{Name: name, Prepare: func(context.Context, workloads.Config) (sweep.GridPlan, error) {
				p, rows := designPlan(g, sps, func(int) float64 { return 1 },
					func(_ int, p *scenario.Prepared, err error) (string, error) {
						if err == nil {
							return "", fmt.Errorf("invalid package %s prepared", sps[0].Package)
						}
						return err.Error(), nil
					},
					func([]string) *report.Table { return nil })
				planRows = append(planRows, rows)
				return p, nil
			}}
		}
		res := eng.RunGridSharded(context.Background(), workloads.DefaultConfig(), []sweep.ShardedScenario{
			plan("first", specs("bad/a", "bad/b")),
			plan("second", specs("bad/c")),
		})
		for _, r := range res {
			if r.Err != nil {
				t.Fatalf("workers=%d: %v", workers, r.Err)
			}
		}
		got := append(planRows[0], planRows[1]...)
		for i, name := range []string{"bad/a", "bad/b", "bad/c"} {
			if want := "scenario " + name + ":"; !strings.HasPrefix(got[i], want) {
				t.Errorf("workers=%d: point %s failed with %q, want an error naming it (%q...)", workers, name, got[i], want)
			}
		}
	}
}
