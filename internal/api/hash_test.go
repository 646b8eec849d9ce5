package api

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcmnpu/internal/experiments"
	"mcmnpu/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testBuild pins the build-version component so golden keys are stable
// across checkouts.
const testBuild = "test"

func mustKey(t *testing.T, req Request) string {
	t.Helper()
	key, err := RequestKey(req, testBuild)
	if err != nil {
		t.Fatalf("RequestKey: %v", err)
	}
	return key
}

// TestRequestKeyGolden pins the canonical hash of one request per kind:
// any unintentional change to canonicalization, defaulting, or key
// derivation shows up as a golden diff. Regenerate intentionally with:
//
//	go test ./internal/api -run TestRequestKeyGolden -update
func TestRequestKeyGolden(t *testing.T) {
	keys := map[string]string{
		"run-urban":    mustKey(t, &RunScenarioRequest{Scenarios: []string{"urban-8cam"}}),
		"run-seeded":   mustKey(t, &RunScenarioRequest{Scenarios: []string{"urban-8cam"}, Seed: 7}),
		"sweep-all":    mustKey(t, &GridSweepRequest{}),
		"dse-default":  mustKey(t, &DSERequest{}),
		"pareto-urban": mustKey(t, &ParetoRequest{Scenarios: []string{"urban-8cam"}, Frames: 8, WindowFrames: 4}),
		"pareto-evolve": mustKey(t, &ParetoRequest{Scenarios: []string{"urban-8cam"}, Frames: 8, WindowFrames: 4,
			Evolve: true, ChipletTypes: []string{"simba", "eco"}}),
	}
	got, err := json.MarshalIndent(keys, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "keys.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(got) != string(want) {
		t.Errorf("request keys drifted (regenerate with -update if intentional)\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestRequestKeyEquivalences: requests that resolve to the same
// semantic payload share a key.
func TestRequestKeyEquivalences(t *testing.T) {
	urban, err := scenario.Lookup("urban-8cam")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		a, b Request
	}{
		{"name vs inline spec",
			&RunScenarioRequest{Scenarios: []string{"urban-8cam"}},
			&RunScenarioRequest{Spec: &urban}},
		{"omitted vs explicit default window",
			&RunScenarioRequest{Scenarios: []string{"urban-8cam"}},
			&RunScenarioRequest{Scenarios: []string{"urban-8cam"}, WindowFrames: 16}},
		{"empty sweep vs full name list",
			&GridSweepRequest{},
			&GridSweepRequest{Scenarios: experiments.GridScenarioNames()}},
		{"sweep name order is canonicalized",
			&GridSweepRequest{Scenarios: []string{"tolerance", "cameras"}},
			&GridSweepRequest{Scenarios: []string{"cameras", "tolerance"}}},
		{"dse zero vs explicit default",
			&DSERequest{},
			&DSERequest{LcstrMs: DefaultLcstrMs}},
		{"stream flag does not change the result identity",
			&GridSweepRequest{Scenarios: []string{"cameras"}},
			&GridSweepRequest{Scenarios: []string{"cameras"}, Stream: true}},
		{"evolve omitted vs explicit default parameters",
			&ParetoRequest{Scenarios: []string{"urban-8cam"}, Evolve: true},
			&ParetoRequest{Scenarios: []string{"urban-8cam"}, Evolve: true,
				Generations: 30, Population: 24, Seed: 1}},
	}
	for _, tc := range cases {
		if ka, kb := mustKey(t, tc.a), mustKey(t, tc.b); ka != kb {
			t.Errorf("%s: keys differ\n a: %s\n b: %s", tc.name, ka, kb)
		}
	}
}

// TestRequestKeyInequalities: semantically different requests must not
// collide.
func TestRequestKeyInequalities(t *testing.T) {
	base := func() *RunScenarioRequest {
		return &RunScenarioRequest{Scenarios: []string{"urban-8cam"}}
	}
	seeded := base()
	seeded.Seed = 7
	// 48 differs from every registry default, so the override is a real
	// semantic change (an override equal to the spec's own default
	// deliberately hashes the same).
	framed := base()
	framed.Frames = 48
	windowed := base()
	windowed.WindowFrames = 8
	other := &RunScenarioRequest{Scenarios: []string{"highway-5cam"}}

	cases := []struct {
		name string
		a, b Request
	}{
		{"seed", base(), seeded},
		{"frames", base(), framed},
		{"window", base(), windowed},
		{"scenario", base(), other},
		{"kind", &GridSweepRequest{}, &DSERequest{}},
		{"dse constraint", &DSERequest{LcstrMs: 85}, &DSERequest{LcstrMs: 90}},
		{"pareto top", &ParetoRequest{Scenarios: []string{"urban-8cam"}},
			&ParetoRequest{Scenarios: []string{"urban-8cam"}, Top: 5}},
		{"pareto chiplet types", &ParetoRequest{Scenarios: []string{"urban-8cam"}},
			&ParetoRequest{Scenarios: []string{"urban-8cam"}, ChipletTypes: []string{"eco"}}},
		{"evolve vs exhaustive", &ParetoRequest{Scenarios: []string{"urban-8cam"}},
			&ParetoRequest{Scenarios: []string{"urban-8cam"}, Evolve: true}},
		{"evolve seed", &ParetoRequest{Scenarios: []string{"urban-8cam"}, Evolve: true},
			&ParetoRequest{Scenarios: []string{"urban-8cam"}, Evolve: true, Seed: 2}},
		{"evolve generations", &ParetoRequest{Scenarios: []string{"urban-8cam"}, Evolve: true},
			&ParetoRequest{Scenarios: []string{"urban-8cam"}, Evolve: true, Generations: 10}},
	}
	for _, tc := range cases {
		if ka, kb := mustKey(t, tc.a), mustKey(t, tc.b); ka == kb {
			t.Errorf("%s: keys collide: %s", tc.name, ka)
		}
	}

	// The build version is part of the key: a rebuilt server never
	// serves another build's results.
	ka, err := RequestKey(base(), "build-a")
	if err != nil {
		t.Fatal(err)
	}
	kb, err := RequestKey(base(), "build-b")
	if err != nil {
		t.Fatal(err)
	}
	if ka == kb {
		t.Error("build version does not separate keys")
	}
}

// TestCanonicalJSONStable: canonicalization is insensitive to struct
// field declaration order and preserves large uint64 values exactly.
func TestCanonicalJSONStable(t *testing.T) {
	type fwd struct {
		A uint64 `json:"a"`
		B int    `json:"b"`
	}
	type rev struct {
		B int    `json:"b"`
		A uint64 `json:"a"`
	}
	ca, err := CanonicalJSON(fwd{A: 18446744073709551615, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := CanonicalJSON(rev{B: 2, A: 18446744073709551615})
	if err != nil {
		t.Fatal(err)
	}
	if string(ca) != string(cb) {
		t.Errorf("field order changed canonical form:\n a: %s\n b: %s", ca, cb)
	}
	// float64 round-tripping would render the max uint64 as 1.8446744073709552e+19.
	if !strings.Contains(string(ca), "18446744073709551615") {
		t.Errorf("uint64 text not preserved: %s", ca)
	}
}
