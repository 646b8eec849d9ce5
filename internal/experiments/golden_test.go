package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mcmnpu/internal/sweep"
	"mcmnpu/internal/workloads"
)

// The golden tests snapshot the rendered paper-reproduction tables and
// assert byte-for-byte equality: they lock the determinism guarantee of
// the analytic stack (scheduler, cost model, DSE scan) end to end —
// any change to a single float anywhere upstream shows up here.
// Regenerate intentionally with:
//
//	go test ./internal/experiments -run TestGolden -update

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Errorf("output drifted from %s (regenerate with -update if intentional)\n got:\n%s\nwant:\n%s",
			path, got, want)
	}
}

func TestGoldenTableI(t *testing.T) {
	r, err := TableI(context.Background(), sweep.New(1), workloads.DefaultConfig(), 85)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1.golden", r.Table().String())
}

func TestGoldenTable2(t *testing.T) {
	rows, err := Table2(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table2.golden", Table2Table(rows).String())
}

// TestGoldenGrid snapshots every ShardedGrid scenario's table from one
// single-worker grid run; TestShardedGridSerialParallelIdentical
// extends the snapshot to every worker count.
func TestGoldenGrid(t *testing.T) {
	goldens := map[string]string{
		"cameras":        "camera_sweep.golden",
		"temporal-depth": "temporal_depth.golden",
		"nop-bandwidth":  "nop_bandwidth.golden",
		"mesh-size":      "mesh_sweep.golden",
		"frontier":       "frontier_sweep.golden",
		"tolerance":      "tolerance.golden",
		"dse-lcstr":      "dse_lcstr.golden",
	}
	eng := sweep.New(1)
	results := eng.RunGridSharded(context.Background(), workloads.DefaultConfig(), ShardedGrid(eng))
	if len(results) != len(goldens) {
		t.Fatalf("grid has %d scenarios, goldens cover %d", len(results), len(goldens))
	}
	for _, r := range results {
		t.Run(r.Scenario, func(t *testing.T) {
			golden, ok := goldens[r.Scenario]
			if !ok {
				t.Fatalf("no golden file for grid scenario %s", r.Scenario)
			}
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			checkGolden(t, golden, r.Table.String())
		})
	}
}
