package experiments

import (
	"fmt"

	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/report"
	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sweep"
	"mcmnpu/internal/workloads"
)

// Scenario sweeps beyond the paper's figures: sensor-suite and package
// scaling. They answer "what if the vehicle had more cameras" and "what
// if the package meshed more/fewer chiplets" — the two axes the paper
// fixes at 8 cameras and 6x6.

// CameraSweepRow is one sensor-suite point: the full pipeline scheduled
// on the 6x6 package with a different installed camera count.
type CameraSweepRow struct {
	Cameras   int64
	E2EMs     float64
	PipeLatMs float64
	EnergyJ   float64
	UtilPct   float64
}

// DefaultCameraCounts brackets the paper's 8-camera suite.
var DefaultCameraCounts = []int64{4, 6, 8, 12}

// cameraPlan is the camera-count grid scenario: the pipeline scheduled
// for each DefaultCameraCounts entry. The FE stage carries one backbone
// replica per camera, so the sweep stresses the throughput matcher's
// sharding. The camera count changes the workload itself, so each point
// compiles its own pipeline.
func cameraPlan(g *gridRun, cfg workloads.Config) (sweep.GridPlan, []CameraSweepRow) {
	counts := DefaultCameraCounts
	specs := make([]scenario.Spec, len(counts))
	for i, n := range counts {
		specs[i] = scenario.Spec{Name: fmt.Sprintf("cameras/%d", n), Workload: cfg}
		specs[i].Workload.Cameras = n
	}
	return designPlan(g, specs,
		func(i int) float64 { return 4.5 * float64(counts[i]) }, // 6x6 build, FE replicas scale with cameras
		func(i int, p *scenario.Prepared, err error) (CameraSweepRow, error) {
			if err != nil {
				return CameraSweepRow{}, err
			}
			return CameraSweepRow{
				Cameras:   counts[i],
				E2EMs:     p.Metrics.E2EMs,
				PipeLatMs: p.Metrics.PipeLatMs,
				EnergyJ:   p.Metrics.EnergyJ,
				UtilPct:   p.Metrics.UtilPct,
			}, nil
		}, CameraSweepTable)
}

// CameraSweepTable renders the sensor-suite sweep.
func CameraSweepTable(rows []CameraSweepRow) *report.Table {
	t := report.NewTable("Scenario — camera count (6x6 MCM, full pipeline)",
		"Cameras", "E2E Lat(ms)", "Pipe Lat(ms)", "Energy(J)", "Utilization(%)")
	for _, r := range rows {
		t.AddRow(r.Cameras, r.E2EMs, r.PipeLatMs, r.EnergyJ, r.UtilPct)
	}
	return t
}

// MeshSweepRow is one package-size point: the full pipeline on a k x k
// mesh of 256-PE chiplets. Sizes whose schedule cannot be built (the
// stage pools run out of capacity) are reported infeasible rather than
// failing the sweep.
type MeshSweepRow struct {
	Mesh      string
	Chiplets  int
	PipeLatMs float64
	EnergyJ   float64
	UtilPct   float64
	Feasible  bool
	Reason    string
}

// DefaultMeshSizes brackets the paper's 6x6 package.
var DefaultMeshSizes = []int{4, 6, 8, 12}

// meshPlan is the mesh-size grid scenario: the pipeline scheduled on
// each square DefaultMeshSizes k x k mesh (k=6 reproduces Simba36, k=12
// is a four-NPU bound). A point that cannot be prepared marks its row
// infeasible rather than failing the sweep.
func meshPlan(g *gridRun, cfg workloads.Config) (sweep.GridPlan, []MeshSweepRow) {
	sizes := DefaultMeshSizes
	specs := make([]scenario.Spec, len(sizes))
	for i, k := range sizes {
		specs[i] = meshSpec("mesh-size", cfg, k, dataflow.OS)
	}
	return designPlan(g, specs,
		func(i int) float64 { return float64(sizes[i] * sizes[i]) },
		func(i int, p *scenario.Prepared, err error) (MeshSweepRow, error) {
			k := sizes[i]
			row := MeshSweepRow{Mesh: fmt.Sprintf("%dx%d", k, k), Chiplets: k * k}
			if err != nil {
				row.Reason = err.Error()
				return row, nil
			}
			row.PipeLatMs = p.Metrics.PipeLatMs
			row.EnergyJ = p.Metrics.EnergyJ
			row.UtilPct = p.Metrics.UtilPct
			row.Feasible = true
			return row, nil
		}, MeshSweepTable)
}

// meshSpec is the design point of a k x k mesh of 256-PE Simba
// chiplets under one package-wide dataflow.
func meshSpec(plan string, cfg workloads.Config, k int, style dataflow.Style) scenario.Spec {
	return scenario.Spec{
		Name:     fmt.Sprintf("%s/%dx%d/%v", plan, k, k, style),
		Workload: cfg,
		Package:  fmt.Sprintf("mesh:%dx%d", k, k),
		Dataflow: style.String(),
	}
}

// MeshSweepTable renders the package-size sweep.
func MeshSweepTable(rows []MeshSweepRow) *report.Table {
	t := report.NewTable("Scenario — mesh size (256-PE chiplets, full pipeline, OS)",
		"Mesh", "Chiplets", "Pipe Lat(ms)", "Energy(J)", "Utilization(%)", "Feasible")
	for _, r := range rows {
		cell := fmt.Sprintf("%v", r.Feasible)
		if !r.Feasible && r.Reason != "" {
			cell = "no: " + r.Reason
		}
		t.AddRow(r.Mesh, r.Chiplets, r.PipeLatMs, r.EnergyJ, r.UtilPct, cell)
	}
	return t
}
