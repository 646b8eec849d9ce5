package experiments

import (
	"testing"

	"mcmnpu/internal/workloads"
)

func TestDataflowAblation(t *testing.T) {
	rows, err := DataflowAblation(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	os, ws := rows[0], rows[1]
	if os.Dataflow != "OS" || ws.Dataflow != "WS" {
		t.Fatalf("order: %+v", rows)
	}
	// The paper's justification for OS-only packages: WS cannot hold the
	// pipelining latency.
	if ws.PipeLatMs < os.PipeLatMs*2 {
		t.Errorf("WS package pipe %.1f should be >> OS %.1f", ws.PipeLatMs, os.PipeLatMs)
	}
	if ws.EDP < os.EDP {
		t.Errorf("WS package EDP %.1f should exceed OS %.1f", ws.EDP, os.EDP)
	}
}

func TestNoPSensitivityRobust(t *testing.T) {
	rows := runPlan(t, nopPlan)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Even 4x-degraded links keep NoP under 20% of E2E.
		if r.NoPShare > 0.20 {
			t.Errorf("%s: NoP share %.1f%% too high", r.Label, r.NoPShare*100)
		}
	}
	// NoP latency monotone in link speed.
	for i := 1; i < len(rows); i++ {
		if rows[i].NoPLatMs >= rows[i-1].NoPLatMs {
			t.Errorf("NoP latency not decreasing with faster links: %v vs %v",
				rows[i].NoPLatMs, rows[i-1].NoPLatMs)
		}
	}
	// Energy independent of bandwidth (it is per-bit-per-hop).
	if rows[0].NoPEnergyJ != rows[2].NoPEnergyJ {
		t.Error("NoP energy should not depend on link bandwidth")
	}
}

func TestToleranceSweep(t *testing.T) {
	rows := runPlan(t, tolerancePlan)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PipeLatMs <= 0 || r.Steps < 1 {
			t.Errorf("bad row %+v", r)
		}
	}
	// A looser tolerance never requires more pipe latency headroom than
	// ~its bound: with 25% tolerance pipe stays within 1.25x base-ish.
	if rows[3].PipeLatMs > rows[0].PipeLatMs*1.3 {
		t.Errorf("loose tolerance blew up: %.1f vs %.1f",
			rows[3].PipeLatMs, rows[0].PipeLatMs)
	}
}

func TestTemporalDepthSweep(t *testing.T) {
	rows := runPlan(t, temporalPlan)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Energy grows monotonically with queue depth.
	for i := 1; i < len(rows); i++ {
		if rows[i].EnergyJ <= rows[i-1].EnergyJ {
			t.Errorf("energy not increasing with N: %v", rows)
		}
	}
	// The throughput matcher holds T_FUSE near the base through N=12.
	for _, r := range rows[:3] {
		if r.TFusePipe > r.PipeLatMs*1.05+1e-9 {
			t.Errorf("N=%d: T_FUSE pipe %.1f exceeds schedule pipe %.1f",
				r.Frames, r.TFusePipe, r.PipeLatMs)
		}
	}
}
