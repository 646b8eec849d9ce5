package dse

import (
	"strings"
	"testing"

	"mcmnpu/internal/workloads"
)

func trunkCfg() workloads.Config {
	cfg := workloads.DefaultConfig()
	cfg.LaneContext = 0.6
	return cfg
}

// trunkSpace is the Table I space: the 9-chiplet trunks quadrant,
// evaluated uncached.
func trunkSpace(lcstrMs float64) *Space {
	return NewCachedSpace(workloads.Trunks(trunkCfg()), 9, lcstrMs, nil)
}

func TestNetsOf(t *testing.T) {
	nets := NetsOf(workloads.Trunks(trunkCfg()))
	// occupancy + lane + 3 detectors x (cls + box) = 8 nets.
	if len(nets) != 8 {
		t.Fatalf("nets = %d, want 8", len(nets))
	}
	var det int
	for _, n := range nets {
		if strings.HasPrefix(n.Name, "det_") {
			det++
			if !strings.HasSuffix(n.Name, ".cls") && !strings.HasSuffix(n.Name, ".box") {
				t.Errorf("detector net %q should split into cls/box", n.Name)
			}
		}
		if len(n.Layers) == 0 {
			t.Errorf("net %q has no layers", n.Name)
		}
	}
	if det != 6 {
		t.Errorf("detector nets = %d, want 6", det)
	}
}

func TestOSOnlyFeasible(t *testing.T) {
	r := trunkSpace(85).Best(0)
	if !r.Feasible {
		t.Fatalf("OS-only trunks must satisfy Lcstr: %+v", r)
	}
	if r.Name != "OS" || len(r.WSNets) != 0 {
		t.Errorf("OS config: %+v", r)
	}
	if r.Combos != 1 {
		t.Errorf("OS-only should evaluate exactly one combo, got %d", r.Combos)
	}
}

func TestWSOnlyInfeasible(t *testing.T) {
	r := trunkSpace(85).Best(9)
	if r.Feasible {
		t.Error("all-WS trunks violate the latency constraint (paper: 605.7 ms E2E)")
	}
	if r.E2EMs < 300 {
		t.Errorf("WS E2E = %.1f ms, paper ~605.7", r.E2EMs)
	}
}

func TestHetAssignsDetectorsToWS(t *testing.T) {
	// The paper's key §IV-C observation: WS chiplets are predominantly
	// assigned to the DET_TR layers.
	s := trunkSpace(85)
	for _, ws := range []int{2, 4} {
		r := s.Best(ws)
		if !r.Feasible {
			t.Fatalf("Het(%d) infeasible", ws)
		}
		for _, n := range r.WSNets {
			if !strings.HasPrefix(n, "det_") {
				t.Errorf("Het(%d) moved non-detector net %q to WS", ws, n)
			}
		}
		if len(r.WSNets) == 0 {
			t.Errorf("Het(%d) left WS chiplets unused", ws)
		}
	}
}

func TestHetImprovesEnergyAndEDP(t *testing.T) {
	s := trunkSpace(85)
	rows := TableIRows([]Result{s.Best(0), s.Best(9), s.Best(2), s.Best(4)})
	if len(rows) != 4 {
		t.Fatalf("Table I rows = %d", len(rows))
	}
	osRow := rows[0]
	for _, r := range rows[2:] { // Het(2), Het(4)
		if r.EnergyJ >= osRow.EnergyJ {
			t.Errorf("%s energy %.4f not below OS %.4f (paper: -1.1%% / -6.2%%)",
				r.Name, r.EnergyJ, osRow.EnergyJ)
		}
		if r.EDP >= osRow.EDP {
			t.Errorf("%s EDP %.2f not below OS %.2f (paper: -17.4%% / -12.0%%)",
				r.Name, r.EDP, osRow.EDP)
		}
		if r.DeltaEnergyPct >= 0 || r.DeltaEDPPct >= 0 {
			t.Errorf("%s deltas should be negative: %+v", r.Name, r)
		}
	}
}

func TestExhaustiveSearchSize(t *testing.T) {
	r := trunkSpace(85).Best(2)
	if r.Combos != 1<<8 {
		t.Errorf("combos = %d, want 2^8 (exhaustive over 8 nets)", r.Combos)
	}
}

func TestPinnedCandidatesCollapse(t *testing.T) {
	s := trunkSpace(85)
	n := len(s.Nets)
	if got := s.Candidates(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("wsCount=0 candidates = %v, want [0]", got)
	}
	if got := s.Candidates(9); len(got) != 1 || got[0] != 1<<n-1 {
		t.Errorf("wsCount=chiplets candidates = %v, want [%d]", got, 1<<n-1)
	}
	if got := s.Candidates(2); len(got) != 1<<n {
		t.Errorf("wsCount=2 candidates = %d, want 2^%d", len(got), n)
	}
	// The pins count only the single genuinely evaluated configuration.
	if r := trunkSpace(85).Best(9); r.Combos != 1 {
		t.Errorf("all-WS pin combos = %d, want 1", r.Combos)
	}
}

func TestTighterConstraintReducesFeasibility(t *testing.T) {
	s := trunkSpace(85)
	loose := s.Best(2)
	tight := s.WithLcstr(5).Best(2)
	if !loose.Feasible {
		t.Fatal("85 ms should be feasible")
	}
	if tight.Feasible {
		t.Error("5 ms cannot be feasible for the trunks")
	}
}

// TestEvalAllocationFree: once a scratch is warm, scoring every
// candidate mask of every pin allocates nothing, so a scan's only
// allocations are its scratch warm-up and its incumbents' WS net names.
func TestEvalAllocationFree(t *testing.T) {
	s := trunkSpace(85)
	pins := make([][]int, s.Chiplets+1)
	for ws := range pins {
		pins[ws] = s.Candidates(ws)
	}
	var (
		scr evalScratch
		r   Result
	)
	pass := func() {
		for ws, masks := range pins {
			for _, mask := range masks {
				s.evalInto(&r, &scr, ws, mask)
			}
		}
	}
	pass() // warm the scratch buffers
	if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
		t.Fatalf("scoring every mask allocated %v times per pass, want 0", allocs)
	}
}
