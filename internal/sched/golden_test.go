package sched

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/nop"
	"mcmnpu/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestScheduleGolden snapshots every decision Algorithm 1 makes on a
// matrix of packages: the paper's 6x6 package under both dataflows, the
// Fig 10 dual-NPU point, Table II's monolithic baselines, a 5x5 mesh
// whose stage split is uneven, and two mixed-type meshes that take the
// heterogeneous probe path. A change to the scheduler's data structures
// must leave it byte-identical. Regenerate intentionally with:
//
//	go test ./internal/sched -run TestScheduleGolden -update
func TestScheduleGolden(t *testing.T) {
	dual := perception(t)
	dual.Stages[workloads.StageTrunks].Replicas = 2
	simba25, err := chiplet.NewTyped("simba-5x5", 5, 5, nop.DefaultParams(), dataflow.OS, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    *workloads.Pipeline
		m    *chiplet.MCM
	}{
		{"simba36-OS", perception(t), chiplet.Simba36(dataflow.OS)},
		{"simba36-WS", perception(t), chiplet.Simba36(dataflow.WS)},
		{"dual72-trunks-x2", dual, chiplet.DualSimba72(dataflow.OS)},
		{"mono1-3stage", perception(t).FirstThreeStages(), chiplet.Baseline(1, dataflow.OS)},
		{"mono2-3stage", perception(t).FirstThreeStages(), chiplet.Baseline(2, dataflow.OS)},
		{"mono4-3stage", perception(t).FirstThreeStages(), chiplet.Baseline(4, dataflow.OS)},
		{"mono4-4stage", perception(t), chiplet.Baseline(4, dataflow.OS)},
		{"simba-5x5", perception(t), simba25},
		{"mixed-4x4", perception(t), mixedMesh(t, 4, 4)},
		{"mixed-6x6", perception(t), mixedMesh(t, 6, 6)},
	}
	var b strings.Builder
	for _, tc := range cases {
		s, err := Build(tc.p, tc.m, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b.WriteString("== " + tc.name + "\n")
		b.WriteString(fingerprint(s))
	}
	got := b.String()
	path := filepath.Join("testdata", "schedules.golden")
	if *update {
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
				t.Fatalf("schedules drifted from %s at line %d (regenerate with -update if intentional):\n want: %s\n  got: %s",
					path, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("schedules drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
