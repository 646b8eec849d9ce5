package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rerun the recorded op prefixes and rewrite testdata/digests.json")

// recordOps is the committed digest prefix per workload, for seeds 1
// and 2.
var recordOps = map[string]int{"evolve-hetero": 12, "stream-long": 100, "grid-cold": 80, "serve-mixed": 1500}

// testOps keeps each workload's test run small.
var testOps = map[string]int{"evolve-hetero": 1, "stream-long": 2, "grid-cold": 2, "serve-mixed": 40}

// benchmarkFile is the subset of BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// assertMetrics checks that a result prints exactly the declared
// metrics, each with its declared unit.
func assertMetrics(t *testing.T, got map[string]metric, want []metricDef) {
	t.Helper()
	var names []string
	for n, m := range got {
		names = append(names, n+" "+m.Unit)
	}
	var wantNames []string
	for _, d := range want {
		wantNames = append(wantNames, d.Name+" "+d.Unit)
	}
	sort.Strings(names)
	sort.Strings(wantNames)
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("printed metrics\n%v\nBENCHMARK.json declares\n%v", names, wantNames)
	}
}

func TestDeclaredMetricsMatchBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	if !reflect.DeepEqual(f.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end: BENCHMARK.json %+v, bench %+v", f.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayerDefs()) {
		t.Errorf("per_layer: BENCHMARK.json %+v, bench %+v", f.PerLayer, perLayerDefs())
	}
}

// TestWorkloads runs every workload traced at a tiny op count: no op
// may fail, the per-op digests must equal the committed prefix, the
// trace file must parse, and the printed metrics must be exactly the
// declared per-layer ones.
func TestWorkloads(t *testing.T) {
	committed, err := loadCommitted()
	if err != nil {
		t.Fatal(err)
	}
	f := loadBenchmarkFile(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			spans := filepath.Join(t.TempDir(), "spans.json")
			out, err := run(context.Background(), config{workload: name, seed: 1, seconds: 60,
				trace: true, spans: spans, ops: testOps[name], committed: committed})
			if err != nil {
				t.Fatal(err)
			}
			if !out.res.Correct || out.res.Failed != 0 {
				t.Fatalf("run failed:\n%v", out.lines)
			}
			want := committed.Ops[name]["1"]
			if len(want) < len(out.digests) || !reflect.DeepEqual(out.digests, want[:len(out.digests)]) {
				t.Errorf("digests %v, committed prefix %v", out.digests, want[:min(len(want), len(out.digests))])
			}
			b, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var tf struct{ Spans []span }
			if err := json.Unmarshal(b, &tf); err != nil || len(tf.Spans) == 0 {
				t.Errorf("trace file: %d spans, %v", len(tf.Spans), err)
			}
			assertMetrics(t, out.res.Metrics, f.PerLayer)
		})
	}
}

func TestEndToEndMetrics(t *testing.T) {
	committed, err := loadCommitted()
	if err != nil {
		t.Fatal(err)
	}
	out, err := run(context.Background(), config{workload: "grid-cold", seed: 2, seconds: 60,
		ops: 2, committed: committed})
	if err != nil {
		t.Fatal(err)
	}
	if !out.res.Correct {
		t.Fatalf("run failed:\n%v", out.lines)
	}
	assertMetrics(t, out.res.Metrics, loadBenchmarkFile(t).EndToEnd)
	for name, m := range out.res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m.Value)
		}
	}
}

// TestRecordDigests rewrites testdata/digests.json under -update.
// Refreshing the digests is a benchmark change of its own.
func TestRecordDigests(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite testdata/digests.json")
	}
	rec := &digestFile{Ops: map[string]map[string][]string{}, Invariant: map[string]string{}}
	for _, name := range workloadNames {
		rec.Ops[name] = map[string][]string{}
		for _, seed := range []uint64{1, 2} {
			out, err := run(context.Background(), config{workload: name, seed: seed, seconds: 3600,
				ops: recordOps[name], committed: rec})
			if err != nil {
				t.Fatal(err)
			}
			if !out.res.Correct {
				t.Fatalf("%s seed %d failed:\n%v", name, seed, out.lines)
			}
			rec.Ops[name][strconv.FormatUint(seed, 10)] = out.digests
			rec.Invariant = out.invariant
		}
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/digests.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
