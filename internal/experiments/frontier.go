package experiments

import (
	"fmt"

	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/pareto"
	"mcmnpu/internal/report"
	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sweep"
	"mcmnpu/internal/workloads"
)

// Frontier summary in the camera-/mesh-sweep family: the analytic
// latency/energy/area trade-off across package sizes and dataflows,
// with the Pareto-dominated points called out. Where the mesh sweep
// answers "how does the package scale", the frontier column answers
// "which of these points would a designer ever pick". (The realized-p99
// frontier over streamed scenarios lives in internal/pareto /
// cmd/pareto; this sweep is the schedule-level view that fits the
// golden/bench harness.)

// FrontierSweepRow is one (mesh, dataflow) point of the analytic
// frontier sweep.
type FrontierSweepRow struct {
	Mesh      string
	Dataflow  string
	Chiplets  int
	PEs       int64
	PipeLatMs float64
	EnergyJ   float64
	UtilPct   float64
	Feasible  bool
	Reason    string
	// OnFrontier marks membership of the pipeline-latency / energy / PE
	// non-dominated set over the feasible rows.
	OnFrontier bool
}

// frontierPlan is the frontier grid scenario: the full pipeline on
// each DefaultMeshSizes k x k mesh under both dataflows, then the
// non-dominated set over (pipeline latency, per-frame energy, total
// PEs). A point that cannot be prepared is reported infeasible and
// excluded from the frontier; the frontier fold happens afterwards in
// markFrontier, over the completed rows in point order.
func frontierPlan(g *gridRun, cfg workloads.Config) (sweep.GridPlan, []FrontierSweepRow) {
	pts := frontierPoints()
	specs := make([]scenario.Spec, len(pts))
	for i, pt := range pts {
		specs[i] = meshSpec("frontier", cfg, pt.k, pt.style)
	}
	return designPlan(g, specs,
		func(i int) float64 { return float64(pts[i].k * pts[i].k) },
		func(i int, p *scenario.Prepared, err error) (FrontierSweepRow, error) {
			k, style := pts[i].k, pts[i].style
			row := FrontierSweepRow{
				Mesh:     fmt.Sprintf("%dx%d", k, k),
				Dataflow: style.String(),
				Chiplets: k * k,
				PEs:      int64(k*k) * costmodel.SimbaProfile().PEs,
			}
			if err != nil {
				row.Reason = err.Error()
				return row, nil
			}
			row.PipeLatMs = p.Metrics.PipeLatMs
			row.EnergyJ = p.Metrics.EnergyJ
			row.UtilPct = p.Metrics.UtilPct
			row.Feasible = true
			return row, nil
		},
		func(rows []FrontierSweepRow) *report.Table {
			markFrontier(rows)
			return FrontierSweepTable(rows)
		})
}

// frontierPointSpec identifies one (mesh size, dataflow) point.
type frontierPointSpec struct {
	k     int
	style dataflow.Style
}

// frontierPoints enumerates the sweep's points in the canonical
// mesh-major, OS-before-WS order the frontier fold depends on.
func frontierPoints() []frontierPointSpec {
	pts := make([]frontierPointSpec, 0, 2*len(DefaultMeshSizes))
	for _, k := range DefaultMeshSizes {
		for _, style := range []dataflow.Style{dataflow.OS, dataflow.WS} {
			pts = append(pts, frontierPointSpec{k: k, style: style})
		}
	}
	return pts
}

// markFrontier folds the feasible rows into the Pareto frontier in row
// order and flags the non-dominated set. The fold order is part of the
// determinism contract: rows always arrive in canonical point order,
// however the engine dispatched the points.
func markFrontier(rows []FrontierSweepRow) {
	var f pareto.Frontier
	for _, r := range rows {
		if !r.Feasible {
			continue
		}
		f.Add(pareto.Point{
			Name: r.Mesh + "/" + r.Dataflow,
			Vec:  []float64{r.PipeLatMs, r.EnergyJ, float64(r.PEs)},
		})
	}
	on := map[string]bool{}
	for _, p := range f.Points() {
		on[p.Name] = true
	}
	for i := range rows {
		rows[i].OnFrontier = rows[i].Feasible && on[rows[i].Mesh+"/"+rows[i].Dataflow]
	}
}

// FrontierSweepTable renders the frontier sweep.
func FrontierSweepTable(rows []FrontierSweepRow) *report.Table {
	t := report.NewTable("Scenario — Pareto frontier over mesh x dataflow (pipe latency / energy / PEs)",
		"Mesh", "Dataflow", "Chiplets", "PEs", "Pipe Lat(ms)", "Energy(J)",
		"Utilization(%)", "Feasible", "Frontier")
	for _, r := range rows {
		feas := fmt.Sprintf("%v", r.Feasible)
		if !r.Feasible && r.Reason != "" {
			feas = "no: " + r.Reason
		}
		front := ""
		if r.OnFrontier {
			front = "*"
		}
		t.AddRow(r.Mesh, r.Dataflow, r.Chiplets, r.PEs, r.PipeLatMs, r.EnergyJ,
			r.UtilPct, feas, front)
	}
	return t
}
