package experiments

import (
	"context"
	"fmt"

	"mcmnpu/internal/nop"
	"mcmnpu/internal/report"
	"mcmnpu/internal/scenario"
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
		_, m, err := layerwise(scenario.Spec{Name: "dataflow/" + style, Workload: cfg, Dataflow: style}, layerCache)
		if err != nil {
			return nil, err
		}
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
func nopPlan(e *sweep.Engine, cfg workloads.Config) (sweep.GridPlan, []NoPSensitivityRow) {
	rows := make([]NoPSensitivityRow, len(nopPoints))
	return sweep.GridPlan{
		Points: len(nopPoints),
		Weight: func(int) float64 { return 36 },
		Run: func(_ context.Context, i int) error {
			pt := nopPoints[i]
			link := nop.DefaultParams()
			link.LinkBWGBs = pt.bw
			link.HopLatencyNs = pt.hop
			sp := scenario.Spec{Name: fmt.Sprintf("nop-bandwidth/%gGBs-%gns", pt.bw, pt.hop), Workload: cfg, NoP: &link}
			_, m, err := layerwise(sp, e.Cache())
			if err != nil {
				return err
			}
			rows[i] = NoPSensitivityRow{
				Label:      pt.label,
				LinkBWGBs:  pt.bw,
				HopLatNs:   pt.hop,
				E2EMs:      m.E2EMs,
				NoPLatMs:   m.NoPLatMs,
				NoPShare:   m.NoPLatMs / m.E2EMs,
				NoPEnergyJ: m.NoPEnergyJ,
			}
			return nil
		},
		Finish: func() (*report.Table, error) { return NoPSensitivityTable(rows), nil },
	}, rows
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
func tolerancePlan(e *sweep.Engine, cfg workloads.Config) (sweep.GridPlan, []ToleranceSweepRow) {
	tols := defaultTolerances
	rows := make([]ToleranceSweepRow, len(tols))
	return sweep.GridPlan{
		Points: len(tols),
		// Tighter tolerance means more greedy iterations.
		Weight: func(i int) float64 { return 36 * 0.05 / tols[i] },
		Run: func(_ context.Context, i int) error {
			tol := tols[i]
			sp := scenario.Spec{Name: fmt.Sprintf("tolerance/%g", tol), Workload: cfg, Tolerance: tol}
			s, m, err := layerwise(sp, e.Cache())
			if err != nil {
				return err
			}
			rows[i] = ToleranceSweepRow{
				Tolerance: tol,
				PipeLatMs: m.PipeLatMs,
				Steps:     len(s.Steps),
				E2EMs:     m.E2EMs,
			}
			return nil
		},
		Finish: func() (*report.Table, error) { return ToleranceSweepTable(rows), nil },
	}, rows
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
func temporalPlan(e *sweep.Engine, cfg workloads.Config) (sweep.GridPlan, []TemporalDepthRow) {
	depths := defaultTemporalDepths
	rows := make([]TemporalDepthRow, len(depths))
	return sweep.GridPlan{
		Points: len(depths),
		Weight: func(int) float64 { return 36 },
		Run: func(_ context.Context, i int) error {
			n := depths[i]
			sp := scenario.Spec{Name: fmt.Sprintf("temporal-depth/%d", n), Workload: cfg}
			sp.Workload.TemporalFrames = n
			s, m, err := layerwise(sp, e.Cache())
			if err != nil {
				return err
			}
			rows[i] = TemporalDepthRow{
				Frames:    n,
				PipeLatMs: m.PipeLatMs,
				TFusePipe: s.Stages[workloads.StageTFuse].PipeLatMs,
				EnergyJ:   m.EnergyJ,
			}
			return nil
		},
		Finish: func() (*report.Table, error) { return TemporalDepthTable(rows), nil },
	}, rows
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
