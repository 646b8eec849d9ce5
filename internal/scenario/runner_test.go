package scenario

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/pipeline"
	"mcmnpu/internal/sweep"
)

// fastOpts keeps the equivalence sweeps quick: every registry scenario
// still builds its full schedule, but streams only a few windows.
var fastOpts = RunOptions{Frames: 8, WindowFrames: 4}

// TestRunTwiceIdentical is the determinism lock: the same scenario run
// twice produces a bit-for-bit identical Result (the struct is
// comparable on purpose — every float must match exactly).
func TestRunTwiceIdentical(t *testing.T) {
	for _, sp := range Registry() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			r1, err := Run(context.Background(), sp, fastOpts)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Run(context.Background(), sp, fastOpts)
			if err != nil {
				t.Fatal(err)
			}
			if r1 != r2 {
				t.Errorf("results differ between identical runs:\n  1st %+v\n  2nd %+v", r1, r2)
			}
		})
	}
}

// TestSerialMatchesPool holds the worker-pool path to the serial path:
// fanning trace windows across a sweep.Engine must not change a single
// bit of the aggregate.
func TestSerialMatchesPool(t *testing.T) {
	eng := sweep.New(4)
	for _, sp := range Registry() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			serial, err := Run(context.Background(), sp, fastOpts)
			if err != nil {
				t.Fatal(err)
			}
			pooled := fastOpts
			pooled.Engine = eng
			par, err := Run(context.Background(), sp, pooled)
			if err != nil {
				t.Fatal(err)
			}
			if serial != par {
				t.Errorf("serial and pooled results differ:\n  serial %+v\n  pooled %+v", serial, par)
			}
		})
	}
}

// TestPreparedMetricsAreLayerwise: the metrics Prepare computes once
// are the schedule's layerwise pipelining metrics, for every registry
// scenario and a mixed-type package.
func TestPreparedMetricsAreLayerwise(t *testing.T) {
	specs := append(Registry(), Spec{Name: "het", Package: "mesh:2x2",
		ChipletTypes: []string{"big", "eco", "simba", "bwopt"}})
	cache := costmodel.NewCache()
	for _, sp := range specs {
		p, err := Prepare(sp, cache)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if want := pipeline.Compute(p.Schedule, pipeline.Layerwise); !reflect.DeepEqual(p.Metrics, want) {
			t.Errorf("%s: Prepared.Metrics = %+v\nwant layerwise %+v", sp.Name, p.Metrics, want)
		}
	}
}

func TestRunMetricsSane(t *testing.T) {
	sp, err := Lookup("urban-8cam")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), sp, RunOptions{Frames: 10, WindowFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Frames != 10 || r.Windows != 3 {
		t.Errorf("frames=%d windows=%d; want 10 frames in 3 windows", r.Frames, r.Windows)
	}
	if !(r.P50Ms <= r.P95Ms && r.P95Ms <= r.P99Ms && r.P99Ms <= r.MaxMs) {
		t.Errorf("percentiles not ordered: %+v", r)
	}
	if r.MeanLatMs <= 0 || r.MaxMs <= 0 {
		t.Errorf("non-positive latencies: %+v", r)
	}
	if r.UtilPct <= 0 || r.UtilPct > 100 {
		t.Errorf("utilization %.2f out of (0,100]", r.UtilPct)
	}
	if r.SimFPS <= 0 {
		t.Errorf("sim FPS %.2f", r.SimFPS)
	}
	if r.EnergyPerFrameJ <= 0 || r.PipeLatMs <= 0 || r.E2EMs < r.PipeLatMs {
		t.Errorf("analytic metrics implausible: %+v", r)
	}
	if r.DeadlineMisses < 0 || r.DeadlineMisses > r.Frames {
		t.Errorf("deadline misses %d out of range", r.DeadlineMisses)
	}
	wantRate := float64(r.DeadlineMisses) / float64(r.Frames) * 100
	if r.MissRatePct != wantRate {
		t.Errorf("miss rate %.3f != misses/frames %.3f", r.MissRatePct, wantRate)
	}
}

// TestDeadlineCounting pins the miss accounting with an impossible and
// a trivially loose budget.
func TestDeadlineCounting(t *testing.T) {
	sp, err := Lookup("urban-8cam")
	if err != nil {
		t.Fatal(err)
	}
	sp.DeadlineMs = 1e-6 // nothing clears a microsecond budget
	r, err := Run(context.Background(), sp, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeadlineMisses != r.Frames || r.MissRatePct != 100 {
		t.Errorf("impossible deadline: %d/%d missed", r.DeadlineMisses, r.Frames)
	}

	sp.DeadlineMs = 1e6 // everything clears a 1000-second budget
	r, err = Run(context.Background(), sp, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeadlineMisses != 0 || r.MissRatePct != 0 {
		t.Errorf("loose deadline: %d missed", r.DeadlineMisses)
	}
}

// TestRunOrderAndCancel streams a batch the way api.Service does, one
// Run per spec in order: each result names its own spec, and a
// cancelled context aborts every run.
func TestRunOrderAndCancel(t *testing.T) {
	specs := Filter("mono")
	if len(specs) < 2 {
		t.Fatalf("want a batch of several specs, got %d", len(specs))
	}
	for _, sp := range specs {
		r, err := Run(context.Background(), sp, fastOpts)
		if err != nil {
			t.Fatal(err)
		}
		if r.Scenario != sp.Name {
			t.Errorf("result %s for spec %s", r.Scenario, sp.Name)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sp := range specs {
		if _, err := Run(ctx, sp, fastOpts); err == nil {
			t.Errorf("%s: cancelled context should abort the run", sp.Name)
		}
	}
}

// TestConcurrentRunsMatchSerial holds one kept Prepared to fresh
// serial runs: concurrent Runs with distinct seeds, frame budgets and
// windows, racing on the lazily compiled simulation graph (run it
// under -race), must each equal a serial Run of the spec with that
// seed written into it.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	sp, err := Lookup("urban-8cam")
	if err != nil {
		t.Fatal(err)
	}
	eng := sweep.New(2)
	runs := []RunOptions{
		{Frames: 8, WindowFrames: 4},
		{Frames: 8, WindowFrames: 4, Seed: 7},
		{Frames: 12, WindowFrames: 5, Seed: 7},
		{Frames: 6, WindowFrames: 16, Seed: 99},
		{Frames: 9, WindowFrames: 2, Seed: 3, Engine: eng},
		{Frames: 16, WindowFrames: 8, Seed: 1 << 40, Engine: eng},
		{Frames: 5, WindowFrames: 3, Seed: 12345},
		{Frames: 8, WindowFrames: 4, Seed: 2, Engine: eng},
	}
	want := make([]Result, len(runs))
	for i, o := range runs {
		seeded := sp
		if o.Seed != 0 {
			seeded.Seed = o.Seed
		}
		serial := o
		serial.Seed, serial.Engine = 0, nil
		if want[i], err = Run(context.Background(), seeded, serial); err != nil {
			t.Fatal(err)
		}
	}
	if want[0] == want[1] {
		t.Fatal("seed override changed nothing; the test cannot tell seeds apart")
	}

	kept, err := Prepare(sp, eng.Cache())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]Result, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, o := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = kept.Run(context.Background(), o)
		}()
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("run %d (%+v): kept design diverged from a serial run:\n got %+v\nwant %+v",
				i, runs[i], got[i], want[i])
		}
	}
	// A later serial run of the kept design reuses its graph and still
	// matches.
	again, err := kept.Run(context.Background(), runs[2])
	if err != nil {
		t.Fatal(err)
	}
	if again != want[2] {
		t.Errorf("rerun of the kept design drifted:\n got %+v\nwant %+v", again, want[2])
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	if _, err := Run(context.Background(), Spec{}, fastOpts); err == nil {
		t.Error("zero spec (no name) should fail")
	}
	if _, err := Run(context.Background(), Spec{Name: "x", Package: "bogus"}, fastOpts); err == nil {
		t.Error("unknown package should fail")
	}
}

func TestWindowLargerThanFrames(t *testing.T) {
	sp, err := Lookup("highway-5cam")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), sp, RunOptions{Frames: 3, WindowFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	if r.Windows != 1 || r.Frames != 3 {
		t.Errorf("window clamp: %+v", r)
	}
}

func TestResultsTableShape(t *testing.T) {
	sp, err := Lookup("degraded-camera-dropout")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), sp, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	tab := ResultsTable([]Result{r})
	if len(tab.Rows) != 1 || len(tab.Rows[0]) != len(tab.Headers) {
		t.Errorf("table shape %dx%d vs %d headers", len(tab.Rows), len(tab.Rows[0]), len(tab.Headers))
	}
	if tab.Rows[0][0] != "degraded-camera-dropout" {
		t.Errorf("first cell = %q", tab.Rows[0][0])
	}
}
