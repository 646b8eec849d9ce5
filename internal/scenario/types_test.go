package scenario

import (
	"context"
	"strings"
	"testing"

	"mcmnpu/internal/pipeline"
	"mcmnpu/internal/sched"
	"mcmnpu/internal/workloads"
)

// TestChipletTypesCompile: typed specs validate, instantiate the right
// heterogeneous package, and reject the invalid mixes.
func TestChipletTypesCompile(t *testing.T) {
	sp := Spec{Name: "het", Package: "mesh:2x2", ChipletTypes: []string{"big*2", "eco", "simba"}}.WithDefaults()
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	_, m, err := sp.instantiate()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.TotalPEs(); got != 512+512+128+256 {
		t.Fatalf("TotalPEs = %d", got)
	}
	if m.Name != "het-2x2" {
		t.Fatalf("MCM name = %q", m.Name)
	}

	uni := Spec{Name: "eco", Package: "mesh:2x2", ChipletTypes: []string{"eco"}}.WithDefaults()
	_, um, err := uni.instantiate()
	if err != nil {
		t.Fatal(err)
	}
	if um.Name != "eco-2x2" || um.TotalPEs() != 4*128 {
		t.Fatalf("uniform eco mesh = %q / %d PEs", um.Name, um.TotalPEs())
	}

	// Typed presets resolve their grid.
	pre := Spec{Name: "preset", Package: "simba36", ChipletTypes: []string{"bwopt"}}.WithDefaults()
	_, pm, err := pre.instantiate()
	if err != nil {
		t.Fatal(err)
	}
	if pm.Chiplets() != 36 || pm.TotalPEs() != 36*256 {
		t.Fatalf("typed simba36 = %d chiplets / %d PEs", pm.Chiplets(), pm.TotalPEs())
	}

	bad := []Spec{
		{Name: "b1", Package: "mesh:2x2", ChipletTypes: []string{"nosuch"}},
		{Name: "b2", Package: "mesh:2x2", ChipletTypes: []string{"eco*3"}},
		{Name: "b3", Package: "mono1", ChipletTypes: []string{"eco"}},
	}
	for _, s := range bad {
		if err := s.WithDefaults().Validate(); err == nil {
			t.Errorf("%s: want validation error", s.Name)
		}
	}
}

// TestChipletTypesRoundTrip: typed specs survive ParseSpec, including
// the strict-field path.
func TestChipletTypesRoundTrip(t *testing.T) {
	data := []byte(`{"name": "het", "package": "mesh:2x2", "chiplet_types": ["eco*2", "big*2"]}`)
	sp, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(sp.ChipletTypes, ",") != "eco*2,big*2" {
		t.Fatalf("ChipletTypes = %v", sp.ChipletTypes)
	}
	if _, _, err := sp.instantiate(); err != nil {
		t.Fatal(err)
	}
}

// TestHeterogeneousRunDeterministic: a mixed-type scenario streams to
// identical results serially and rerun (the D-rules extended to typed
// packages).
func TestHeterogeneousRunDeterministic(t *testing.T) {
	sp := Spec{Name: "het-run", Package: "mesh:2x2",
		ChipletTypes: []string{"big", "eco", "simba", "bwopt"}}.WithDefaults()
	opts := RunOptions{Frames: 4, WindowFrames: 2}
	r1, err := Run(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("heterogeneous rerun drifted:\n%+v\n%+v", r1, r2)
	}
	if r1.P99Ms <= 0 || r1.EnergyPerFrameJ <= 0 {
		t.Fatalf("degenerate result %+v", r1)
	}
}

// TestWorkloadMemoEquivalence proves the compiled-workload memo is
// bit-for-bit invisible: a run whose schedule is built from a fresh,
// uncached workloads.Perception compilation equals the memoized path's
// result exactly (Result is comparable, so == is the whole contract).
func TestWorkloadMemoEquivalence(t *testing.T) {
	sp, err := Lookup("urban-8cam")
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{Frames: 4, WindowFrames: 2}

	// Memoized path (twice: cold memo, then warm memo).
	warm1, err := Run(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := Run(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Bypass path: compile the workload directly, build the schedule on
	// a freshly instantiated package, stream the same windows.
	sp, m, err := sp.instantiate()
	if err != nil {
		t.Fatal(err)
	}
	p, err := workloads.Perception(sp.Workload)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Build(p, m, sched.Options{Tolerance: sp.Tolerance})
	if err != nil {
		t.Fatal(err)
	}
	prep := &Prepared{Spec: sp, Schedule: s, Metrics: pipeline.Compute(s, pipeline.Layerwise)}
	fresh, err := prep.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}

	if warm1 != fresh || warm2 != fresh {
		t.Fatalf("workload memo changed results:\nmemo cold %+v\nmemo warm %+v\nfresh     %+v",
			warm1, warm2, fresh)
	}
}

// TestWorkloadMemoSharesPointer: repeated Prepare of one workload
// compiles once and shares the canonical pipeline pointer.
func TestWorkloadMemoSharesPointer(t *testing.T) {
	cfg := workloads.DefaultConfig()
	p1, err := compileWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := compileWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("compileWorkload returned distinct pipelines for one config")
	}
	other := cfg
	other.Cameras = cfg.Cameras + 1
	p3, err := compileWorkload(other)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("distinct configs shared a pipeline")
	}
}
