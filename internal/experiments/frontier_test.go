package experiments

import (
	"testing"

	"mcmnpu/internal/pareto"
)

func TestFrontierSweep(t *testing.T) {
	rows := runPlan(t, frontierPlan)
	if len(rows) != len(DefaultMeshSizes)*2 {
		t.Fatalf("rows = %d, want %d (mesh x dataflow)", len(rows), len(DefaultMeshSizes)*2)
	}
	var frontier []FrontierSweepRow
	for _, r := range rows {
		if r.OnFrontier {
			if !r.Feasible {
				t.Errorf("%s/%s: infeasible row on the frontier", r.Mesh, r.Dataflow)
			}
			frontier = append(frontier, r)
		}
	}
	if len(frontier) == 0 {
		t.Fatal("empty frontier")
	}
	// Frontier rows are mutually non-dominated.
	vec := func(r FrontierSweepRow) []float64 {
		return []float64{r.PipeLatMs, r.EnergyJ, float64(r.PEs)}
	}
	for i, a := range frontier {
		for j, b := range frontier {
			if i != j && pareto.Dominates(vec(a), vec(b)) {
				t.Errorf("frontier row %s/%s dominates %s/%s", a.Mesh, a.Dataflow, b.Mesh, b.Dataflow)
			}
		}
	}
	// Every dominated feasible row is actually dominated by a frontier row.
	for _, r := range rows {
		if !r.Feasible || r.OnFrontier {
			continue
		}
		dominated := false
		for _, q := range frontier {
			if pareto.Dominates(vec(q), vec(r)) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Errorf("%s/%s excluded from the frontier but not dominated", r.Mesh, r.Dataflow)
		}
	}
	// The paper's 6x6/OS operating point must survive: it is the
	// latency/energy sweet spot the whole study argues for.
	found := false
	for _, r := range frontier {
		if r.Mesh == "6x6" && r.Dataflow == "OS" {
			found = true
		}
	}
	if !found {
		t.Error("6x6/OS not on the analytic frontier")
	}
}
