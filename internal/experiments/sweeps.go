package experiments

import (
	"context"
	"fmt"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/nop"
	"mcmnpu/internal/pipeline"
	"mcmnpu/internal/report"
	"mcmnpu/internal/sched"
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
// sharding.
func cameraPlan(e *sweep.Engine, cfg workloads.Config) (sweep.GridPlan, []CameraSweepRow, error) {
	counts := DefaultCameraCounts
	rows := make([]CameraSweepRow, len(counts))
	return sweep.GridPlan{
		Points: len(counts),
		Weight: func(i int) float64 { return 4.5 * float64(counts[i]) }, // 6x6 build, FE replicas scale with cameras
		Run: func(_ context.Context, i int) (err error) {
			rows[i], err = cameraPoint(cfg, counts[i], engineSchedOptions(e))
			return err
		},
		Finish: func() (*report.Table, error) { return CameraSweepTable(rows), nil },
	}, rows, nil
}

// cameraPoint evaluates one camera-count point: the camera count
// changes the workload itself, so each point compiles its own pipeline.
// Goroutine-safe given a concurrency-safe (or nil) opts.Cache.
func cameraPoint(cfg workloads.Config, n int64, opts sched.Options) (CameraSweepRow, error) {
	c := cfg
	c.Cameras = n
	p, err := workloads.Perception(c)
	if err != nil {
		return CameraSweepRow{}, fmt.Errorf("cameras=%d: %w", n, err)
	}
	s, err := sched.Build(p, chiplet.Simba36(dataflow.OS), opts)
	if err != nil {
		return CameraSweepRow{}, fmt.Errorf("cameras=%d: %w", n, err)
	}
	m := pipeline.Compute(s, pipeline.Layerwise)
	return CameraSweepRow{
		Cameras:   n,
		E2EMs:     m.E2EMs,
		PipeLatMs: m.PipeLatMs,
		EnergyJ:   m.EnergyJ,
		UtilPct:   m.UtilPct,
	}, nil
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
// is a four-NPU bound).
func meshPlan(e *sweep.Engine, cfg workloads.Config) (sweep.GridPlan, []MeshSweepRow, error) {
	sizes := DefaultMeshSizes
	p, err := workloads.Perception(cfg)
	if err != nil {
		return sweep.GridPlan{}, nil, err
	}
	rows := make([]MeshSweepRow, len(sizes))
	return sweep.GridPlan{
		Points: len(sizes),
		Weight: func(i int) float64 { return float64(sizes[i] * sizes[i]) },
		Run: func(_ context.Context, i int) (err error) {
			rows[i], err = meshPoint(p, sizes[i], engineSchedOptions(e))
			return err
		},
		Finish: func() (*report.Table, error) { return MeshSweepTable(rows), nil },
	}, rows, nil
}

// meshPoint schedules the shared pipeline on one k x k mesh. A schedule
// that cannot be built marks the row infeasible rather than erroring.
// Goroutine-safe: sched.Build reads the pipeline, never mutates it.
func meshPoint(p *workloads.Pipeline, k int, opts sched.Options) (MeshSweepRow, error) {
	m, err := chiplet.New(fmt.Sprintf("simba-%dx%d", k, k), k, k, nop.DefaultParams(),
		func(nop.Coord) *costmodel.Accel { return costmodel.SimbaChiplet(dataflow.OS) })
	if err != nil {
		return MeshSweepRow{}, err
	}
	row := MeshSweepRow{Mesh: fmt.Sprintf("%dx%d", k, k), Chiplets: m.Chiplets()}
	s, err := sched.Build(p, m, opts)
	if err != nil {
		row.Reason = err.Error()
		return row, nil
	}
	mt := pipeline.Compute(s, pipeline.Layerwise)
	row.PipeLatMs = mt.PipeLatMs
	row.EnergyJ = mt.EnergyJ
	row.UtilPct = mt.UtilPct
	row.Feasible = true
	return row, nil
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
