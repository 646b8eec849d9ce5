package pareto

import (
	"context"
	"encoding/json"
	"testing"

	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sweep"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false}, // equal: no strict improvement
		{[]float64{1, 1}, []float64{1, 2}, true},
		{[]float64{2, 2}, []float64{1, 1}, false},
		{[]float64{1}, []float64{1, 2}, false}, // mismatched lengths
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestFrontierAddAndEvict(t *testing.T) {
	var f Frontier
	if !f.Add(Point{Name: "a", Vec: []float64{5, 5}}) {
		t.Fatal("first point rejected")
	}
	if f.Add(Point{Name: "b", Vec: []float64{6, 6}}) {
		t.Error("dominated point joined")
	}
	if !f.Add(Point{Name: "c", Vec: []float64{6, 4}}) {
		t.Error("incomparable point rejected")
	}
	// d dominates both a and c: the frontier collapses to d alone.
	if !f.Add(Point{Name: "d", Vec: []float64{4, 4}}) {
		t.Error("dominating point rejected")
	}
	if f.Len() != 1 || f.Points()[0].Name != "d" {
		t.Errorf("frontier after eviction: %+v", f.Points())
	}
	// Equal vectors from distinct candidates coexist.
	if !f.Add(Point{Name: "e", Vec: []float64{4, 4}}) {
		t.Error("equal-vector point rejected")
	}
	if f.Len() != 2 {
		t.Errorf("equal-vector point did not coexist: %+v", f.Points())
	}
	if f.DominatedBy([]float64{5, 5}) != true {
		t.Error("DominatedBy missed a dominated vector")
	}
	if f.DominatedBy([]float64{4, 4}) {
		t.Error("DominatedBy claimed an equal (non-dominated) vector")
	}
}

func TestParseObjectives(t *testing.T) {
	got, err := ParseObjectives("")
	if err != nil || len(got) != 3 {
		t.Fatalf("default objectives: %v, %v", got, err)
	}
	// Spelled out of order, returned in canonical order.
	got, err = ParseObjectives("pes, p99")
	if err != nil || len(got) != 2 || got[0] != ObjP99 || got[1] != ObjPEs {
		t.Fatalf("subset objectives: %v, %v", got, err)
	}
	if _, err := ParseObjectives("edp"); err == nil {
		t.Error("unknown objective accepted")
	}
}

func TestParseMeshes(t *testing.T) {
	got, err := ParseMeshes("4x4, 12x6")
	if err != nil || len(got) != 2 || got[1] != (MeshDim{12, 6}) {
		t.Fatalf("ParseMeshes: %v, %v", got, err)
	}
	for _, bad := range []string{"", "4", "0x4", "ax b", "4x4junk", "4x4x4", "+4x4", "4x+4",
		"-4x4", "4 x4", "6x6,8x8trailing", "99999999999999999999x4"} {
		if _, err := ParseMeshes(bad); err == nil {
			t.Errorf("ParseMeshes(%q) accepted", bad)
		}
	}
}

func TestCandidateApply(t *testing.T) {
	sp, err := scenario.Lookup("urban-8cam")
	if err != nil {
		t.Fatal(err)
	}
	c := Candidate{Mesh: MeshDim{5, 4}, Dataflow: "WS", LinkBWGBs: 200}
	got := c.Apply(sp)
	if got.Package != "mesh:5x4" || got.Dataflow != "WS" {
		t.Errorf("Apply: package %s dataflow %s", got.Package, got.Dataflow)
	}
	if got.NoP == nil || got.NoP.LinkBWGBs != 200 {
		t.Errorf("Apply: NoP override %+v", got.NoP)
	}
	if got.Workload != sp.Workload || got.CameraFPS != sp.CameraFPS {
		t.Error("Apply disturbed the scenario's workload or trace model")
	}
	if c.Name() != "5x4/WS/bw200" {
		t.Errorf("Name: %s", c.Name())
	}
	if (Candidate{Mesh: MeshDim{6, 6}, Dataflow: "OS"}).Name() != "6x6/OS" {
		t.Error("default-bandwidth name carries a bw suffix")
	}
}

func TestSpaceCandidatesDeterministic(t *testing.T) {
	s := Space{Meshes: []MeshDim{{4, 4}, {6, 6}}, Dataflows: []string{"OS", "WS"}}
	a, b := s.Candidates(), s.Candidates()
	if len(a) != 4 {
		t.Fatalf("candidate count %d, want 4", len(a))
	}
	for i := range a {
		if a[i].Name() != b[i].Name() {
			t.Fatalf("enumeration not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if n := len((Space{}).Candidates()); n != len(DefaultSpace().Meshes)*2 {
		t.Errorf("zero space candidates: %d", n)
	}
	// Duplicate axis values collapse: a candidate name is unique, so a
	// repeat would be evaluated twice and render twice in the frontier.
	dup := Space{Meshes: []MeshDim{{6, 6}, {6, 6}}, Dataflows: []string{"OS", "OS"}}
	if got := dup.Candidates(); len(got) != 1 {
		t.Errorf("duplicate axes produced %d candidates, want 1: %+v", len(got), got)
	}
}

// testSpace is the small registry-backed space the exploration tests
// share: four candidates over the urban scenario at a reduced frame
// budget.
func testSpace() (Space, Options) {
	sp, err := scenario.Lookup("urban-8cam")
	if err != nil {
		panic(err)
	}
	return Space{
			Meshes:    []MeshDim{{4, 4}, {6, 6}},
			Dataflows: []string{"OS", "WS"},
		}, Options{
			Scenarios:    []scenario.Spec{sp},
			Frames:       8,
			WindowFrames: 4,
		}
}

// TestLowerBoundSound locks the pruning premise over the full default
// space (every mesh, both dataflows) and over an evolved heterogeneous
// space (mixed chiplet types on four scenarios, two seeds): the
// safety-discounted analytic latency bound never exceeds the realized
// p99 (the raw layerwise E2E can overshoot the sim by a few per-mille —
// that is exactly what lbSafety absorbs), and the analytic per-frame
// energy is the realized value by construction.
func TestLowerBoundSound(t *testing.T) {
	_, opts := testSpace()
	opts.NoPrune = true
	rep, err := Explore(context.Background(), Space{}, opts) // default space
	if err != nil {
		t.Fatal(err)
	}
	checkBounds(t, rep)

	var scenarios []scenario.Spec
	for _, name := range []string{"urban-8cam", "highway-5cam", "robotaxi-12cam-hires", "deep-temporal-16"} {
		sp, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, sp)
	}
	typed := Space{Meshes: []MeshDim{{4, 4}, {6, 6}}, Types: []string{"simba", "eco", "big", "bwopt"}}
	for _, seed := range []uint64{1, 2} {
		rep, err := Evolve(context.Background(), typed, EvolveOptions{
			Options:     Options{Scenarios: scenarios, Frames: 8, WindowFrames: 4, NoPrune: true},
			Generations: 10,
			Population:  24,
			Seed:        seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkBounds(t, rep)
	}
}

// checkBounds holds every feasible evaluation of rep to its bounds.
func checkBounds(t *testing.T, rep Report) {
	t.Helper()
	for _, e := range rep.Evals {
		if e.Infeasible {
			continue
		}
		if e.LBLatMs*lbSafety > e.P99Ms {
			t.Errorf("%s: discounted latency bound %.6f ms above realized p99 %.6f ms",
				e.Name, e.LBLatMs*lbSafety, e.P99Ms)
		}
		if e.LBEnergyJ != e.EnergyJ {
			t.Errorf("%s: energy bound %.9f J != realized %.9f J", e.Name, e.LBEnergyJ, e.EnergyJ)
		}
	}
}

// TestPruningPreservesFrontier: with a sound lower bound, dominance
// pruning must not change the frontier — only skip full runs that could
// never have joined it. Runs over the full default space so the meshes
// where the raw E2E bound overshoots the sim (8x8, 12x6) are covered.
func TestPruningPreservesFrontier(t *testing.T) {
	_, opts := testSpace()
	space := Space{} // default space
	ctx := context.Background()
	pruned, err := Explore(ctx, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.NoPrune = true
	full, err := Explore(ctx, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(pruned.Frontier)
	b, _ := json.Marshal(full.Frontier)
	if string(a) != string(b) {
		t.Errorf("pruning changed the frontier:\npruned: %s\nfull:   %s", a, b)
	}
	if pruned.Evaluated+pruned.Pruned+pruned.Infeasible != len(space.Candidates()) {
		t.Errorf("accounting: evaluated %d + pruned %d + infeasible %d != %d candidates",
			pruned.Evaluated, pruned.Pruned, pruned.Infeasible, len(space.Candidates()))
	}
}

// TestExploreSerialMatchesPool is the determinism acceptance lock:
// serial execution, a 1-worker pool and a multi-worker pool produce
// bit-for-bit identical report JSON, and repeated runs do too. Run
// under -race by `make race`.
func TestExploreSerialMatchesPool(t *testing.T) {
	space, opts := testSpace()
	ctx := context.Background()

	serial, err := Explore(ctx, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		opts.Engine = sweep.New(workers)
		rep, err := Explore(ctx, space, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(rep)
		if string(got) != string(want) {
			t.Errorf("%d-worker pool diverged from serial:\n got: %s\nwant: %s", workers, got, want)
		}
	}
	opts.Engine = nil
	again, err := Explore(ctx, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(again)
	if string(got) != string(want) {
		t.Error("repeated serial run diverged")
	}
}

// TestExploreMultiScenario aggregates worst case across scenarios and
// flags infeasible candidates without failing the exploration.
func TestExploreMultiScenario(t *testing.T) {
	urban, err := scenario.Lookup("urban-8cam")
	if err != nil {
		t.Fatal(err)
	}
	highway, err := scenario.Lookup("highway-5cam")
	if err != nil {
		t.Fatal(err)
	}
	space := Space{Meshes: []MeshDim{{1, 1}, {6, 6}}, Dataflows: []string{"OS"}}
	rep, err := Explore(context.Background(), space, Options{
		Scenarios:    []scenario.Spec{urban, highway},
		Frames:       4,
		WindowFrames: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 2 {
		t.Fatalf("scenarios: %v", rep.Scenarios)
	}
	var feasible int
	for _, e := range rep.Evals {
		if e.Infeasible {
			if e.Reason == "" {
				t.Errorf("%s infeasible without reason", e.Name)
			}
			continue
		}
		feasible++
		if e.P99Ms <= 0 || e.EnergyJ <= 0 || e.PEs <= 0 {
			t.Errorf("%s: degenerate objectives %+v", e.Name, e)
		}
	}
	if feasible == 0 {
		t.Error("every candidate infeasible")
	}
	if len(rep.Frontier) == 0 {
		t.Error("empty frontier")
	}
}

func TestExploreRejectsBadInput(t *testing.T) {
	if _, err := Explore(context.Background(), Space{}, Options{}); err == nil {
		t.Error("no scenarios accepted")
	}
	sp, _ := scenario.Lookup("urban-8cam")
	_, err := Explore(context.Background(), Space{}, Options{
		Scenarios:  []scenario.Spec{sp},
		Objectives: []string{"edp"},
	})
	if err == nil {
		t.Error("unknown objective accepted")
	}
}

func TestTopTableRanksByProduct(t *testing.T) {
	rep := Report{
		Objectives: []string{ObjP99, ObjEnergy},
		Scenarios:  []string{"s"},
		Frontier: []Eval{
			{Name: "big", P99Ms: 10, EnergyJ: 10},  // score 100
			{Name: "small", P99Ms: 2, EnergyJ: 3},  // score 6
			{Name: "mid", P99Ms: 4, EnergyJ: 2.5},  // score 10
			{Name: "also", P99Ms: 1.5, EnergyJ: 4}, // score 6 too; ties break by name ("also" < "small")
		},
	}
	tbl := TopTable(rep, 2)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	if tbl.Rows[0][1] != "also" || tbl.Rows[1][1] != "small" {
		t.Errorf("ranking: %v", tbl.Rows)
	}
	if got := len(TopTable(rep, 0).Rows); got != 4 {
		t.Errorf("n=0 should render the whole frontier, got %d rows", got)
	}
}
