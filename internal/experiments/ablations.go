package experiments

import (
	"fmt"

	"mcmnpu/internal/nop"
	"mcmnpu/internal/report"
	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sched"
	"mcmnpu/internal/sweep"
	"mcmnpu/internal/workloads"
)

// Ablations beyond the paper's tables: they justify the design choices
// the paper makes implicitly (OS-only MCM focus, NoP parameters far from
// the bottleneck, scheduler tolerance).

// DataflowAblationRow compares package-wide dataflow choices.
type DataflowAblationRow struct {
	Dataflow  string
	PipeLatMs float64
	EnergyJ   float64
	EDP       float64
	UtilPct   float64
}

// DataflowAblation schedules the full pipeline on an all-OS and an
// all-WS 6x6 package — the quantitative backing for the paper's choice
// to "focus the analysis on the multi-chiplet NPU with OS only
// dataflow".
func DataflowAblation(cfg workloads.Config) ([]DataflowAblationRow, error) {
	var rows []DataflowAblationRow
	for _, style := range []string{"OS", "WS"} {
		p, err := scenario.Prepare(scenario.Spec{Name: "dataflow/" + style, Workload: cfg, Dataflow: style}, layerCache)
		if err != nil {
			return nil, err
		}
		m := p.Metrics
		rows = append(rows, DataflowAblationRow{
			Dataflow:  style,
			PipeLatMs: m.PipeLatMs,
			EnergyJ:   m.EnergyJ,
			EDP:       m.EDP,
			UtilPct:   m.UtilPct,
		})
	}
	return rows, nil
}

// DataflowAblationTable renders the dataflow ablation.
func DataflowAblationTable(rows []DataflowAblationRow) *report.Table {
	t := report.NewTable("Ablation — package-wide dataflow choice (6x6 MCM, full pipeline)",
		"Dataflow", "Pipe Lat(ms)", "Energy(J)", "EDP(ms*J)", "Utilization(%)")
	for _, r := range rows {
		t.AddRow(r.Dataflow, r.PipeLatMs, r.EnergyJ, r.EDP, r.UtilPct)
	}
	return t
}

// NoPSensitivityRow is one NoP parameter point.
type NoPSensitivityRow struct {
	Label      string
	LinkBWGBs  float64
	HopLatNs   float64
	E2EMs      float64
	NoPLatMs   float64
	NoPShare   float64 // NoP latency / E2E
	NoPEnergyJ float64
}

// nopPoints are the NoP parameter points around the paper's operating
// point (100 GB/s, 35 ns).
var nopPoints = []struct {
	label string
	bw    float64
	hop   float64
}{
	{"4x slower links", 25, 140},
	{"2x slower links", 50, 70},
	{"paper (100GB/s, 35ns)", 100, 35},
	{"2x faster links", 200, 17.5},
}

// nopPlan is the NoP-sensitivity grid scenario: the NoP link bandwidth
// and hop latency swept around the paper's operating point (100 GB/s,
// 35 ns) on the 6x6 OS package. It shows the Fig 9 conclusion is
// robust: even a 4x-degraded interconnect keeps NoP far from the
// computational critical path.
func nopPlan(g *gridRun, cfg workloads.Config) (sweep.GridPlan, []NoPSensitivityRow) {
	specs := make([]scenario.Spec, len(nopPoints))
	for i, pt := range nopPoints {
		link := nop.DefaultParams()
		link.LinkBWGBs = pt.bw
		link.HopLatencyNs = pt.hop
		specs[i] = scenario.Spec{Name: fmt.Sprintf("nop-bandwidth/%gGBs-%gns", pt.bw, pt.hop), Workload: cfg, NoP: &link}
	}
	return designPlan(g, specs,
		func(int) float64 { return 36 },
		func(i int, p *scenario.Prepared, err error) (NoPSensitivityRow, error) {
			if err != nil {
				return NoPSensitivityRow{}, err
			}
			pt, m := nopPoints[i], p.Metrics
			return NoPSensitivityRow{
				Label:      pt.label,
				LinkBWGBs:  pt.bw,
				HopLatNs:   pt.hop,
				E2EMs:      m.E2EMs,
				NoPLatMs:   m.NoPLatMs,
				NoPShare:   m.NoPLatMs / m.E2EMs,
				NoPEnergyJ: m.NoPEnergyJ,
			}, nil
		}, NoPSensitivityTable)
}

// NoPSensitivityTable renders the NoP sweep.
func NoPSensitivityTable(rows []NoPSensitivityRow) *report.Table {
	t := report.NewTable("Ablation — NoP parameter sensitivity (6x6 MCM)",
		"Point", "BW(GB/s)", "Hop(ns)", "E2E(ms)", "NoP Lat(ms)", "NoP share(%)", "NoP Energy(J)")
	for _, r := range rows {
		t.AddRow(r.Label, r.LinkBWGBs, r.HopLatNs, r.E2EMs, r.NoPLatMs,
			r.NoPShare*100, r.NoPEnergyJ)
	}
	return t
}

// ToleranceSweepRow is one scheduler-tolerance point.
type ToleranceSweepRow struct {
	Tolerance float64
	PipeLatMs float64
	Steps     int
	E2EMs     float64
}

// defaultTolerances are the tolerance-coefficient points of the sweep.
var defaultTolerances = []float64{0.01, 0.05, 0.10, 0.25}

// tolerancePlan is the tolerance grid scenario: Algorithm 1's tolerance
// coefficient varied on the 6x6 OS package. Tighter tolerances buy a
// slightly flatter pipeline at the cost of more greedy steps (sharding)
// and NoP traffic.
func tolerancePlan(g *gridRun, cfg workloads.Config) (sweep.GridPlan, []ToleranceSweepRow) {
	tols := defaultTolerances
	specs := make([]scenario.Spec, len(tols))
	for i, tol := range tols {
		specs[i] = scenario.Spec{Name: fmt.Sprintf("tolerance/%g", tol), Workload: cfg, Tolerance: tol}
	}
	return designPlan(g, specs,
		// Tighter tolerance means more greedy iterations.
		func(i int) float64 { return 36 * sched.DefaultTolerance / tols[i] },
		func(i int, p *scenario.Prepared, err error) (ToleranceSweepRow, error) {
			if err != nil {
				return ToleranceSweepRow{}, err
			}
			return ToleranceSweepRow{
				Tolerance: tols[i],
				PipeLatMs: p.Metrics.PipeLatMs,
				Steps:     len(p.Schedule.Steps),
				E2EMs:     p.Metrics.E2EMs,
			}, nil
		}, ToleranceSweepTable)
}

// ToleranceSweepTable renders the tolerance sweep.
func ToleranceSweepTable(rows []ToleranceSweepRow) *report.Table {
	t := report.NewTable("Ablation — scheduler tolerance coefficient",
		"Tolerance", "Pipe Lat(ms)", "Greedy steps", "E2E(ms)")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.0f%%", r.Tolerance*100), r.PipeLatMs, r.Steps, r.E2EMs)
	}
	return t
}

// TemporalDepthRow is one temporal-queue-depth point.
type TemporalDepthRow struct {
	Frames    int64
	PipeLatMs float64
	TFusePipe float64
	EnergyJ   float64
}

// defaultTemporalDepths are the queue-depth points of the sweep.
var defaultTemporalDepths = []int64{4, 8, 12, 16}

// temporalPlan is the temporal-depth grid scenario: the temporal
// fusion queue depth N varied (paper uses 12). The throughput matcher
// absorbs deeper queues by sharding until the quadrant saturates. The
// depth changes the workload, so each point compiles its own pipeline.
func temporalPlan(g *gridRun, cfg workloads.Config) (sweep.GridPlan, []TemporalDepthRow) {
	depths := defaultTemporalDepths
	specs := make([]scenario.Spec, len(depths))
	for i, n := range depths {
		specs[i] = scenario.Spec{Name: fmt.Sprintf("temporal-depth/%d", n), Workload: cfg}
		specs[i].Workload.TemporalFrames = n
	}
	return designPlan(g, specs,
		func(int) float64 { return 36 },
		func(i int, p *scenario.Prepared, err error) (TemporalDepthRow, error) {
			if err != nil {
				return TemporalDepthRow{}, err
			}
			return TemporalDepthRow{
				Frames:    depths[i],
				PipeLatMs: p.Metrics.PipeLatMs,
				TFusePipe: p.Schedule.Stages[workloads.StageTFuse].PipeLatMs,
				EnergyJ:   p.Metrics.EnergyJ,
			}, nil
		}, TemporalDepthTable)
}

// TemporalDepthTable renders the queue-depth sweep.
func TemporalDepthTable(rows []TemporalDepthRow) *report.Table {
	t := report.NewTable("Ablation — temporal fusion queue depth",
		"Frames N", "Pipe Lat(ms)", "T_FUSE pipe(ms)", "Energy(J)")
	for _, r := range rows {
		t.AddRow(r.Frames, r.PipeLatMs, r.TFusePipe, r.EnergyJ)
	}
	return t
}
