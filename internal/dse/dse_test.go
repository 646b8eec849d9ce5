package dse

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mcmnpu/internal/costmodel"
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
		sc  score
	)
	pass := func() {
		for ws, masks := range pins {
			for _, mask := range masks {
				s.evalInto(&sc, &scr, ws, mask)
			}
		}
	}
	pass() // warm the scratch buffers
	if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
		t.Fatalf("scoring every mask allocated %v times per pass, want 0", allocs)
	}
}

// referenceScan is the scoring Best replaced, kept as the oracle of
// TestBestMatchesReference. It re-scores every candidate of pin
// wsCount under the space's own constraint: each style's latencies are
// gathered in net order and sorted per mask, and LPT puts each on the
// first least-loaded bin. visit sees every candidate that packs, in
// candidate order.
func referenceScan(s *Space, wsCount int, visit func(Result)) {
	limit := s.LcstrMs * 1.05
	for _, mask := range s.Candidates(wsCount) {
		var (
			osMs, wsMs []float64
			wsNets     []string
			energy     float64
		)
		chain := make([]float64, s.nModels)
		for i, net := range s.Nets {
			onWS := mask&(1<<i) != 0
			col := osCol
			if onWS {
				col = wsCol
				wsNets = append(wsNets, net.Name)
			}
			for j := range net.Layers {
				c := s.tab.Cost(s.layerOff[i]+j, col)
				energy += c.EnergyJ
				chain[s.netModel[i]] += c.LatencyMs
				if onWS {
					wsMs = append(wsMs, c.LatencyMs)
				} else {
					osMs = append(osMs, c.LatencyMs)
				}
			}
		}
		osMax, osOK := referenceLPT(osMs, s.Chiplets-wsCount)
		wsMax, wsOK := referenceLPT(wsMs, wsCount)
		if !osOK || !wsOK {
			continue
		}
		pipe := math.Max(osMax, wsMax)
		var e2e float64
		for _, ms := range chain {
			e2e = math.Max(e2e, ms)
		}
		visit(Result{E2EMs: e2e, PipeLatMs: pipe, EnergyJ: energy, EDP: energy * pipe,
			Feasible: pipe <= limit, WSNets: wsNets})
	}
}

// referenceLPT sorts ms descending and puts each latency on the first
// least-loaded of chips bins, returning the busiest bin.
func referenceLPT(ms []float64, chips int) (float64, bool) {
	if len(ms) == 0 {
		return 0, true
	}
	if chips <= 0 {
		return math.Inf(1), false
	}
	slices.SortFunc(ms, func(a, b float64) int { return cmp.Compare(b, a) })
	loads := make([]float64, chips)
	for _, v := range ms {
		k := 0
		for j := 1; j < chips; j++ {
			if loads[j] < loads[k] {
				k = j
			}
		}
		loads[k] += v
	}
	return slices.Max(loads), true
}

// referenceBest folds referenceScan in candidate order under the strict
// Better, as Best did.
func referenceBest(s *Space, wsCount int) Result {
	best := Result{EDP: math.Inf(1)}
	found := false
	referenceScan(s, wsCount, func(r Result) {
		if !found || Better(r, best) {
			best, found = r, true
		}
	})
	best.Name = configName(wsCount)
	best.WSCount = wsCount
	best.Combos = len(s.Candidates(wsCount))
	return best
}

// boundaryLcstrs returns the constraints that probe pin ws's
// feasibility boundary: each distinct pipe latency the reference scores
// on the pin divided by the 5% tolerance, with its float neighbours on
// both sides, plus 5, 85 and 1e5 ms.
func boundaryLcstrs(s *Space, ws int) []float64 {
	pipes := map[float64]bool{}
	referenceScan(s, ws, func(r Result) { pipes[r.PipeLatMs] = true })
	lcstrs := []float64{5, 85, 1e5}
	for pipe := range pipes {
		l := pipe / 1.05
		lcstrs = append(lcstrs, math.Nextafter(l, 0), l, math.Nextafter(l, math.Inf(1)))
	}
	slices.Sort(lcstrs)
	return lcstrs
}

// TestBestMatchesReference holds the memoized scan with presorted
// packing to the scan it replaced, bit for bit: on every pin, through
// WithLcstr views of one shared space, cached and uncached, at every
// constraint around the pin's feasibility boundary.
func TestBestMatchesReference(t *testing.T) {
	oracle := trunkSpace(85) // only read, so its memo stays empty
	spaces := []struct {
		name string
		s    *Space
	}{
		{"uncached", trunkSpace(85)},
		{"cached", NewCachedSpace(workloads.Trunks(trunkCfg()), 9, 85, costmodel.NewCache())},
	}
	for ws := 0; ws <= oracle.Chiplets; ws++ {
		lcstrs := boundaryLcstrs(oracle, ws)
		feasible := 0
		for i, l := range lcstrs {
			want := referenceBest(oracle.WithLcstr(l), ws)
			if i == 0 && want.Feasible {
				t.Errorf("pin %d is feasible at Lcstr %v", ws, l)
			}
			if want.Feasible {
				feasible++
			}
			for _, sp := range spaces {
				if got := sp.s.WithLcstr(l).Best(ws); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s pin %d at Lcstr %v:\n got %+v\nwant %+v", sp.name, ws, l, got, want)
				}
			}
		}
		if feasible == 0 {
			t.Errorf("pin %d is infeasible at every Lcstr in %v", ws, lcstrs)
		}
	}
}

// TestBestScoresOncePerPin: a pin's candidates are scored by its first
// Best, once for the space and all its views, and no other pin is
// scored with it.
func TestBestScoresOncePerPin(t *testing.T) {
	s := trunkSpace(85)
	s.Best(2)
	for ws := range s.pins {
		if scored := s.pins[ws].scores != nil; scored != (ws == 2) {
			t.Errorf("after Best(2), pin %d scored = %v", ws, scored)
		}
	}
	first := &s.pins[2].scores[0]
	s.WithLcstr(5).Best(2)
	if &s.pins[2].scores[0] != first {
		t.Error("a WithLcstr view re-scored the pin")
	}
}

// TestBestRejectsPinsOutsideSpace: a wsCount outside [0, Chiplets]
// names no pin, so nothing packs on it.
func TestBestRejectsPinsOutsideSpace(t *testing.T) {
	s := trunkSpace(85)
	for _, ws := range []int{-1, s.Chiplets + 1, 1 << 30} {
		r := s.Best(ws)
		if !math.IsInf(r.EDP, 1) || r.Feasible || r.WSNets != nil || r.Combos != 0 {
			t.Errorf("Best(%d) = %+v, want the no-pack result", ws, r)
		}
		if c := s.Candidates(ws); c != nil {
			t.Errorf("Candidates(%d) = %d masks, want none", ws, len(c))
		}
	}
}

// TestBestConcurrentViews: goroutines scanning distinct-Lcstr views of
// one fresh space, every pin each, race on the lazily filled score
// memo; they must get what serial scans of another space get (run
// under -race by make race).
func TestBestConcurrentViews(t *testing.T) {
	lcstrs := []float64{5, 60, 63.6274 / 1.05, 70, 85, 100, 150, 1e5}
	serial := trunkSpace(85)
	want := make([][]Result, len(lcstrs))
	for g, l := range lcstrs {
		for ws := 0; ws <= serial.Chiplets; ws++ {
			want[g] = append(want[g], serial.WithLcstr(l).Best(ws))
		}
	}
	shared := trunkSpace(85)
	got := make([][]Result, len(lcstrs))
	var wg sync.WaitGroup
	for g, l := range lcstrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := shared.WithLcstr(l)
			for ws := 0; ws <= v.Chiplets; ws++ {
				got[g] = append(got[g], v.Best(ws))
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("concurrent scans differ from serial ones:\n got %+v\nwant %+v", got, want)
	}
}

// TestHetTieIsOneUnsplittableLayer explains why Table I's Het(2) and
// Het(4) rows are identical. Both move the same six detector nets to
// WS, so their energy is equal. Every row's pipe is the OS latency of
// occupancy's ocup.deconv4, the largest single OS layer, which LPT
// cannot split across chiplets: more WS chiplets cannot shorten it. The
// tie comes out of the search, not out of a gap in the model.
func TestHetTieIsOneUnsplittableLayer(t *testing.T) {
	s := trunkSpace(85)
	osRow, het2, het4 := s.Best(0), s.Best(2), s.Best(4)
	if len(het2.WSNets) != 6 || !reflect.DeepEqual(het2.WSNets, het4.WSNets) {
		t.Errorf("WS nets: Het(2) %v, Het(4) %v; want the same six", het2.WSNets, het4.WSNets)
	}
	for _, n := range het2.WSNets {
		if !strings.HasPrefix(n, "det_") {
			t.Errorf("Het(2) moved non-detector net %q to WS", n)
		}
	}
	if het2.EnergyJ != het4.EnergyJ || math.Abs(het2.EnergyJ-0.060688) > 5e-7 {
		t.Errorf("energy: Het(2) %v J, Het(4) %v J; want both 0.060688", het2.EnergyJ, het4.EnergyJ)
	}

	var largest float64
	var name string
	for i, net := range s.Nets {
		for j, l := range net.Layers {
			if ms := s.tab.Cost(s.layerOff[i]+j, osCol).LatencyMs; ms > largest {
				largest, name = ms, net.Model+"/"+l.Name
			}
		}
	}
	if name != "occupancy/ocup.deconv4" || math.Abs(largest-63.6274) > 5e-5 {
		t.Fatalf("largest OS layer %s at %v ms, want occupancy/ocup.deconv4 at 63.6274", name, largest)
	}
	for _, r := range []Result{osRow, het2, het4} {
		if r.PipeLatMs != largest {
			t.Errorf("%s pipe %v ms, want the largest OS layer's %v", r.Name, r.PipeLatMs, largest)
		}
	}
}
