package experiments

import (
	"context"
	"fmt"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/dse"
	"mcmnpu/internal/pipeline"
	"mcmnpu/internal/report"
	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sched"
	"mcmnpu/internal/sweep"
	"mcmnpu/internal/workloads"
)

// TableIResult wraps the trunks heterogeneous-integration study.
type TableIResult struct {
	Rows  []dse.TableIRow
	Lcstr float64
}

// TableISpace is Table I's exploration space under lcstrMs: the
// 9-chiplet trunks quadrant with the lane trunk at 60% context (the
// operating point Fig 11 selects), its cost table built on the engine's
// cache. Its WithLcstr views share the cost table and the per-pin
// scores, so a caller that explores many constraints builds it once.
func TableISpace(e *sweep.Engine, cfg workloads.Config, lcstrMs float64) *dse.Space {
	cfg.LaneContext = 0.6
	return dse.NewCachedSpace(workloads.Trunks(cfg), 9, lcstrMs, e.Cache())
}

// TableI runs the paper's Table I (Lcstr = 85 ms in the paper): Table
// I over a fresh TableISpace.
func TableI(ctx context.Context, e *sweep.Engine, cfg workloads.Config, lcstrMs float64) (TableIResult, error) {
	return TableIOn(ctx, TableISpace(e, cfg, lcstrMs))
}

// TableIOn runs Table I over space under its LcstrMs: the four
// configuration rows (OS-only, WS-only, Het(2), Het(4)) are the pins 0,
// Chiplets, 2 and 4, each one (*dse.Space).Best. The all-WS row
// violates the latency constraint; the paper reports it anyway as a
// bound. The context is checked before each pin.
func TableIOn(ctx context.Context, space *dse.Space) (TableIResult, error) {
	var results []dse.Result
	for _, ws := range []int{0, space.Chiplets, 2, 4} {
		if err := ctx.Err(); err != nil {
			return TableIResult{}, err
		}
		results = append(results, space.Best(ws))
	}
	results[1].Name = "WS"
	return TableIResult{Rows: dse.TableIRows(results), Lcstr: space.LcstrMs}, nil
}

// Table renders Table I.
func (r TableIResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Table I — heterogeneous trunks integration (Lcstr = %.0f ms)", r.Lcstr),
		"Config", "E2E Lat(ms)", "Pipe Lat(ms)", "Energy(J)", "EDP(ms*J)",
		"dE2E%", "dPipe%", "dEnergy%", "dEDP%", "Feasible")
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.E2EMs, row.PipeLatMs, row.EnergyJ, row.EDP,
			row.DeltaE2EPct, row.DeltaPipePct, row.DeltaEnergyPct, row.DeltaEDPPct,
			fmt.Sprintf("%v", row.Feasible))
	}
	return t
}

// DefaultLcstrPoints are the latency-constraint points of the DSE Lcstr
// scenario (ms), bracketing the paper's 85 ms operating point.
var DefaultLcstrPoints = []float64{60, 70, 85, 100}

// lcstrPlan is the dse-lcstr grid scenario: Table I's Het(2)
// exploration re-run under each DefaultLcstrPoints constraint, showing
// how the feasible heterogeneous frontier moves as Lcstr tightens.
// Every point is one (*dse.Space).Best scan on its pool worker, over a
// view of one TableISpace: the constraint only gates feasibility, never
// costs, so the first point to run scores the Het(2) pin for all of
// them.
func lcstrPlan(g *gridRun, cfg workloads.Config) (sweep.GridPlan, []dse.Result) {
	lcstrs := DefaultLcstrPoints
	base := TableISpace(g.eng, cfg, lcstrs[0])
	results := make([]dse.Result, len(lcstrs))
	return sweep.GridPlan{
		Points: len(lcstrs),
		Weight: func(int) float64 { return 4 },
		Run: func(_ context.Context, i int) error {
			results[i] = base.WithLcstr(lcstrs[i]).Best(2)
			return nil
		},
		Finish: func() (*report.Table, error) {
			t := report.NewTable("DSE — Het(2) trunks integration vs latency constraint",
				"Lcstr(ms)", "E2E Lat(ms)", "Pipe Lat(ms)", "Energy(J)", "EDP(ms*J)", "WS nets", "Feasible")
			for i, l := range lcstrs {
				r := results[i]
				t.AddRow(l, r.E2EMs, r.PipeLatMs, r.EnergyJ, r.EDP,
					fmt.Sprintf("%d", len(r.WSNets)), fmt.Sprintf("%v", r.Feasible))
			}
			return t, nil
		},
	}, results
}

// Table2Row is one arrangement/pipelining-mode row of Table II.
type Table2Row struct {
	Arrangement string
	Chiplets    int
	Mode        pipeline.Mode
	Metrics     pipeline.Metrics
}

// Table2 evaluates the paper's chiplet arrangements (1x9216, 2x4608,
// 4x2304, 36x256 — same 9,216-PE budget) on the first three pipeline
// stages under stagewise and layerwise pipelining.
func Table2(cfg workloads.Config) ([]Table2Row, error) {
	p, err := workloads.Perception(cfg)
	if err != nil {
		return nil, err
	}
	p3 := p.FirstThreeStages()
	arrangements := []struct {
		name string
		mcm  *chiplet.MCM
	}{
		{"1x9216", chiplet.Baseline(1, dataflow.OS)},
		{"2x4608", chiplet.Baseline(2, dataflow.OS)},
		{"4x2304", chiplet.Baseline(4, dataflow.OS)},
		{"36x256", chiplet.Simba36(dataflow.OS)},
	}
	var rows []Table2Row
	for _, a := range arrangements {
		s, err := sched.Build(p3, a.mcm, sched.Options{Cache: layerCache})
		if err != nil {
			return nil, fmt.Errorf("table2 %s: %w", a.name, err)
		}
		for _, mode := range []pipeline.Mode{pipeline.Stagewise, pipeline.Layerwise} {
			rows = append(rows, Table2Row{
				Arrangement: a.name,
				Chiplets:    a.mcm.Chiplets(),
				Mode:        mode,
				Metrics:     pipeline.Compute(s, mode),
			})
		}
	}
	return rows, nil
}

// Table2Table renders Table II.
func Table2Table(rows []Table2Row) *report.Table {
	t := report.NewTable("Table II — chiplet arrangements at equal PE budget (9,216 PEs)",
		"Pipeline", "Arrangement", "E2E Lat(ms)", "Pipe Lat(ms)", "Energy(J)",
		"EDP(ms*J)", "Utilization(%)")
	for _, r := range rows {
		t.AddRow(r.Mode.String(), r.Arrangement, r.Metrics.E2EMs, r.Metrics.PipeLatMs,
			r.Metrics.EnergyJ, r.Metrics.EDP, r.Metrics.UtilPct)
	}
	return t
}

// Fig10Result is the dual-NPU scaling study.
type Fig10Result struct {
	SinglePipeMs float64
	DualPipeMs   float64
	Steps        []sched.Step
}

// Fig10 runs Algorithm 1 on the 72-chiplet dual-NPU package (trunks
// doubled per the paper) and reports the greedy progression.
func Fig10(cfg workloads.Config) (Fig10Result, error) {
	var r Fig10Result
	single, err := scenario.Prepare(scenario.Spec{Name: "fig10/single", Workload: cfg}, layerCache)
	if err != nil {
		return r, err
	}
	r.SinglePipeMs = single.Schedule.PipeLatMs()

	// The paper doubles the trunks (2 x 9 chiplets) when both NPUs are
	// active. No Spec expresses replicated trunks, so the dual package
	// schedules a private compilation it can modify.
	dual, err := workloads.Perception(cfg)
	if err != nil {
		return r, err
	}
	dual.Stages[workloads.StageTrunks].Replicas = 2
	s2, err := sched.Build(dual, chiplet.DualSimba72(dataflow.OS), sched.Options{Cache: layerCache})
	if err != nil {
		return r, err
	}
	r.DualPipeMs = s2.PipeLatMs()
	r.Steps = s2.Steps
	return r, nil
}

// Table renders the Fig 10 progression.
func (r Fig10Result) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Fig 10 — Algorithm 1 on 2 NPUs (72 chiplets); single-NPU pipe %.1f ms",
			r.SinglePipeMs),
		"Step", "Action", "Stage", "Pipe Lat(ms)", "Chiplets free")
	for i, s := range r.Steps {
		t.AddRow(i, s.Action, s.Stage, s.PipeLatMs, s.ChipletsFree)
	}
	return t
}

// Table3Row is one occupancy-upsampling ablation row.
type Table3Row struct {
	Factor    int64
	E2EMs     float64
	PipeLatMs float64 // dominant (pipeline-limiting) layer latency
	SpeedupE  float64 // E2E vs the 2x row
}

// Table3 sweeps the occupancy trunk's upsampling factor (paper Table III).
func Table3(cfg workloads.Config) []Table3Row {
	osA := costmodel.SimbaChiplet(dataflow.OS)
	var rows []Table3Row
	var base float64
	for _, f := range []int64{2, 4, 8, 16} {
		c := cfg
		c.OccupancyUpsample = f
		gc := costmodel.GraphOn(workloads.OccupancyTrunk(c), osA)
		var worst float64
		for _, lc := range gc.PerLayer {
			if lc.LatencyMs > worst {
				worst = lc.LatencyMs
			}
		}
		row := Table3Row{Factor: f, E2EMs: gc.LatencyMs, PipeLatMs: worst}
		if base == 0 {
			base = gc.LatencyMs
			row.SpeedupE = 1
		} else {
			row.SpeedupE = gc.LatencyMs / base
		}
		rows = append(rows, row)
	}
	return rows
}

// Table3Table renders Table III.
func Table3Table(rows []Table3Row) *report.Table {
	t := report.NewTable("Table III — occupancy trunk input-scaling ablation (single chiplet, OS)",
		"Upsampling", "E2E Lat(ms)", "Pipe Lat(ms)", "vs 2x")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("[%dX,%dY]", r.Factor, r.Factor), r.E2EMs, r.PipeLatMs,
			fmt.Sprintf("%.2fx", r.SpeedupE))
	}
	return t
}

// Fig11Row is one context-retention point of the lane trunk study.
type Fig11Row struct {
	ContextPct int
	LatencyMs  float64
	EnergyJ    float64
	MeetsLcstr bool
}

// Fig11 sweeps context-aware computing for the lane trunk against the
// 82 ms pipelining-latency threshold.
func Fig11(cfg workloads.Config, lcstrMs float64) []Fig11Row {
	osA := costmodel.SimbaChiplet(dataflow.OS)
	var rows []Fig11Row
	for _, pct := range []int{100, 90, 75, 60, 50, 40, 25, 10} {
		c := cfg
		c.LaneContext = float64(pct) / 100
		gc := costmodel.GraphOn(workloads.LaneTrunk(c), osA)
		rows = append(rows, Fig11Row{
			ContextPct: pct,
			LatencyMs:  gc.LatencyMs,
			EnergyJ:    gc.EnergyJ,
			MeetsLcstr: gc.LatencyMs <= lcstrMs,
		})
	}
	return rows
}

// Fig11Table renders the lane context sweep.
func Fig11Table(rows []Fig11Row, lcstrMs float64) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Fig 11 — lane trunk under context-aware computing (threshold %.0f ms)", lcstrMs),
		"Context(%)", "Lat(ms)", "Energy(J)", "Meets threshold")
	for _, r := range rows {
		t.AddRow(r.ContextPct, r.LatencyMs, r.EnergyJ, fmt.Sprintf("%v", r.MeetsLcstr))
	}
	return t
}
