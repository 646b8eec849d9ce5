package experiments

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"mcmnpu/internal/sweep"
	"mcmnpu/internal/workloads"
)

func TestFig3Claims(t *testing.T) {
	r := Fig3(workloads.DefaultConfig())
	if len(r.Components) != 6 {
		t.Fatalf("components = %d", len(r.Components))
	}
	// Paper §III-A: OS offers large speedups over WS (6.85x reported).
	if r.OSSpeedup < 3 {
		t.Errorf("OS speedup = %.2fx, paper 6.85x", r.OSSpeedup)
	}
	// Fusion modules dominate: T_FUSE >> S_FUSE > others.
	if r.TFuseShare < 0.35 {
		t.Errorf("T_FUSE share = %.2f, paper 0.52-0.54", r.TFuseShare)
	}
	if r.SFuseShare < 0.15 || r.SFuseShare > 0.35 {
		t.Errorf("S_FUSE share = %.2f, paper 0.25-0.28", r.SFuseShare)
	}
	// WS is the energy-efficient choice once fusion is excluded.
	if r.WSEnergyGainNoFuse <= 1 {
		t.Errorf("WS ex-fusion energy gain = %.2f, paper 1.55", r.WSEnergyGainNoFuse)
	}
	if got := r.Table().String(); !strings.Contains(got, "T_FUSE") {
		t.Error("table rendering broken")
	}
}

func TestFig4Affinities(t *testing.T) {
	rows := Fig4(workloads.DefaultConfig())
	if len(rows) < 50 {
		t.Fatalf("expected many compute layers, got %d", len(rows))
	}
	// Paper: fusion layers are OS-affine in BOTH latency and energy
	// (trivial glue layers like the telemetry projection are below the
	// resolution of the claim).
	for _, r := range rows {
		if r.Group != "S+T Attn Fusion" || math.Abs(r.DeltaLatMs) < 0.05 {
			continue
		}
		if r.DeltaLatMs >= 0 {
			t.Errorf("fusion layer %s not OS-affine in latency", r.Layer)
		}
	}
	// Paper: OS is faster on every layer class studied.
	slower := 0
	for _, r := range rows {
		if r.DeltaLatMs > 0 {
			slower++
		}
	}
	if slower > len(rows)/10 {
		t.Errorf("%d/%d layers WS-faster; paper has OS dominating latency", slower, len(rows))
	}
	// Paper: FE+BFPN exhibits a latency/energy trade-off: some layers
	// must be WS-affine in energy.
	wsEnergyAffine := 0
	for _, r := range rows {
		if r.Group == "FE+BFPN" && r.DeltaEJ > 0 {
			wsEnergyAffine++
		}
	}
	if wsEnergyAffine == 0 {
		t.Error("no FE layer WS-affine in energy; paper shows a trade-off")
	}
}

func TestFig5to8Mappings(t *testing.T) {
	rows, p, err := Fig5to8(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("stages = %d", len(rows))
	}
	// Pipelining latencies are throughput-matched: spread within the
	// scheduler's tolerance of the max.
	var max, min float64 = 0, math.MaxFloat64
	for _, r := range rows {
		if r.PipeLatMs > max {
			max = r.PipeLatMs
		}
		if r.PipeLatMs < min {
			min = r.PipeLatMs
		}
	}
	if min < max*0.80 {
		t.Errorf("stage pipes not matched: min %.1f max %.1f", min, max)
	}
	// The fusion stages must be sharded.
	if len(rows[1].Shards) == 0 || len(rows[2].Shards) == 0 {
		t.Error("fusion stages should have sharded units")
	}
	if p.Schedule.BaseMs <= 0 {
		t.Error("base latency missing")
	}
}

func TestTableIShape(t *testing.T) {
	r, err := TableI(context.Background(), sweep.New(1), workloads.DefaultConfig(), 85)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	names := []string{"OS", "WS", "Het(2)", "Het(4)"}
	for i, row := range r.Rows {
		if row.Name != names[i] {
			t.Errorf("row %d = %s, want %s", i, row.Name, names[i])
		}
	}
	if r.Rows[1].Feasible {
		t.Error("WS-only must violate Lcstr")
	}
	for _, row := range r.Rows[2:] {
		if row.DeltaEnergyPct >= 0 {
			t.Errorf("%s should save energy (paper -1.1%%/-6.2%%)", row.Name)
		}
	}
}

// TestTableICancelled: a cancelled context stops Table I before its
// first pin and surfaces as context.Canceled.
func TestTableICancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := TableI(ctx, sweep.New(2), workloads.DefaultConfig(), 85)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFig9NoPScale(t *testing.T) {
	_, p, err := Fig5to8(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := Fig9(p.Schedule)
	if len(rows) < 4 {
		t.Fatalf("NoP groups = %d", len(rows))
	}
	var maxLat float64
	for _, r := range rows {
		if r.LatencyMs > maxLat {
			maxLat = r.LatencyMs
		}
		if r.Bytes <= 0 {
			t.Errorf("group %s has no traffic", r.Label)
		}
	}
	// Paper observation (iii): NoP costs are far below compute
	// (per-group transfer latencies in the single-digit ms at most,
	// against ~80 ms compute pipelining latency).
	if base := p.Schedule.BaseMs; maxLat > base/4 {
		t.Errorf("max NoP group latency %.2f not << compute %.1f", maxLat, base)
	}
}

func TestTable2Rows(t *testing.T) {
	rows, err := Table2(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 4 arrangements x 2 modes
		t.Fatalf("rows = %d", len(rows))
	}
	// Find layerwise rows for mono and MCM.
	var monoPipe, mcmPipe, monoUtil, mcmUtil float64
	for _, r := range rows {
		if r.Mode.String() != "layerwise" {
			continue
		}
		switch r.Arrangement {
		case "1x9216":
			monoPipe, monoUtil = r.Metrics.PipeLatMs, r.Metrics.UtilPct
		case "36x256":
			mcmPipe, mcmUtil = r.Metrics.PipeLatMs, r.Metrics.UtilPct
		}
	}
	if mcmPipe >= monoPipe/2 {
		t.Errorf("36x256 pipe %.1f vs mono %.1f: expected large gain", mcmPipe, monoPipe)
	}
	if mcmUtil <= monoUtil*2 {
		t.Errorf("utilization gain %.1f -> %.1f too small (paper 2.8x)", monoUtil, mcmUtil)
	}
}

func TestFig10Progression(t *testing.T) {
	r, err := Fig10(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ratio := r.DualPipeMs / r.SinglePipeMs
	if ratio > 0.65 || ratio < 0.35 {
		t.Errorf("dual/single = %.2f, paper ~0.5", ratio)
	}
	if len(r.Steps) < 5 {
		t.Errorf("expected a multi-step progression, got %d", len(r.Steps))
	}
	// The trace must never report more free chiplets than exist.
	for _, s := range r.Steps {
		if s.ChipletsFree < 0 || s.ChipletsFree > 72 {
			t.Errorf("bad free count %d", s.ChipletsFree)
		}
	}
}

func TestTable3Scaling(t *testing.T) {
	rows := Table3(workloads.DefaultConfig())
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Paper Table III: 0.97 -> 4.97 -> 21.16 -> 86.29 ms: ~4-5x per step.
	for i := 1; i < len(rows); i++ {
		step := rows[i].E2EMs / rows[i-1].E2EMs
		if step < 2.5 || step > 6 {
			t.Errorf("scaling step %d = %.2fx, paper ~4.3x", i, step)
		}
	}
	// Absolute scale: [16X] near the paper's 86.29 ms.
	if rows[3].E2EMs < 60 || rows[3].E2EMs > 110 {
		t.Errorf("[16X] E2E = %.1f ms, paper 86.29", rows[3].E2EMs)
	}
}

func TestFig11Crossover(t *testing.T) {
	rows := Fig11(workloads.DefaultConfig(), 82)
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].MeetsLcstr {
		t.Error("100% context must exceed the 82 ms threshold (paper Fig 11)")
	}
	// Paper: around 60% computing satisfies the constraint.
	var at60 bool
	for _, r := range rows {
		if r.ContextPct == 60 {
			at60 = r.MeetsLcstr
		}
	}
	if !at60 {
		t.Error("60% context should satisfy the 82 ms threshold")
	}
	// Latency and energy monotone in context.
	for i := 1; i < len(rows); i++ {
		if rows[i].LatencyMs >= rows[i-1].LatencyMs {
			t.Errorf("latency not decreasing at %d%%", rows[i].ContextPct)
		}
		if rows[i].EnergyJ >= rows[i-1].EnergyJ {
			t.Errorf("energy not decreasing at %d%%", rows[i].ContextPct)
		}
	}
}
