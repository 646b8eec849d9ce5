package sim_test

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sched"
	"mcmnpu/internal/sim"
	"mcmnpu/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestTemplateGolden snapshots the task template Prepare compiles from
// every registry scenario's schedule, the first three stages on the
// paper's 6x6 package and the Fig 10 dual-NPU schedule with two trunk
// replicas. Both engines read one Graph, so the engine-equivalence
// tests cannot see a change to Prepare; this file can. Regenerate
// intentionally with:
//
//	go test ./internal/sim -run TestTemplateGolden -update
func TestTemplateGolden(t *testing.T) {
	schedules, err := registrySchedules()
	if err != nil {
		t.Fatal(err)
	}
	type namedSchedule struct {
		name string
		s    *sched.Schedule
	}
	var cases []namedSchedule
	for i, sp := range scenario.Registry() {
		cases = append(cases, namedSchedule{sp.Name, schedules[i]})
	}
	p, err := workloads.Perception(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	three, err := sched.Build(p.FirstThreeStages(), chiplet.Simba36(dataflow.OS), sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dualPipe, err := workloads.Perception(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dualPipe.Stages[workloads.StageTrunks].Replicas = 2
	dual, err := sched.Build(dualPipe, chiplet.DualSimba72(dataflow.OS), sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, namedSchedule{"simba36-first-three", three}, namedSchedule{"dual72-trunks-x2", dual})

	var b strings.Builder
	for _, tc := range cases {
		g, err := sim.Prepare(tc.s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b.WriteString("== " + tc.name + "\n")
		sim.RenderTemplate(&b, g)
	}
	got := b.String()
	path := filepath.Join("testdata", "templates.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("templates drifted from %s at line %d (regenerate with -update if intentional):\n want: %s\n  got: %s",
					path, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("templates drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// raceEnabled reports a -race build (race_test.go sets it).
var raceEnabled bool

// TestPrepareAllocations guards the allocations of one Prepare of the
// urban-8cam registry schedule. Route yields a dependency transfer's
// links instead of building a slice per transfer, and
// sched.Schedule.TransferMs evaluates a dependency's shard transfers in
// place, so the count follows the template's tasks and edges: the same
// Prepare made 310 allocations when each transfer's route was a fresh
// slice, and 210 when TransferMs built the transfers it compared. The
// race detector's instrumentation allocates more, so the test skips
// under -race.
func TestPrepareAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const maxAllocs = 169
	schedules, err := registrySchedules()
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(scenario.Registry(), func(sp scenario.Spec) bool { return sp.Name == "urban-8cam" })
	if i < 0 {
		t.Fatal("urban-8cam is not in the registry")
	}
	prepare := func() {
		if _, err := sim.Prepare(schedules[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(10, prepare); got > maxAllocs {
		t.Errorf("Prepare of urban-8cam allocates %v times, want <= %v", got, maxAllocs)
	}
}

// TestRunAllocations guards the allocations of one warm 64-frame window
// of Graph.Run on every registry scenario: the event loop runs on the
// pooled scratch, so what remains is the window's arrivals
// (trace.Generator.FrameSets, 5) and its Result (summarize, 2).
// AllocsPerRun's own warm-up run fills the pool. Skipped under -race,
// like TestPrepareAllocations.
func TestRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const maxAllocs = 7
	schedules, err := registrySchedules()
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range scenario.Registry() {
		g, err := sim.Prepare(schedules[i])
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		gen := sp.WindowGenerator(0)
		run := func() {
			if _, err := g.Run(64, gen); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(10, run); got > maxAllocs {
			t.Errorf("Run of a 64-frame %s window allocates %v times, want <= %v", sp.Name, got, maxAllocs)
		}
	}
}
