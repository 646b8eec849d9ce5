package sched_test

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/nop"
	"mcmnpu/internal/pipeline"
	"mcmnpu/internal/sched"
	"mcmnpu/internal/workloads"
)

// planNoPs are the NoP settings a plan is finished under: the paper's,
// a slow and a fast link, and two settings far outside any package
// (0.001 GB/s links, 10 ms hops).
func planNoPs() []nop.Params {
	def := nop.DefaultParams()
	out := []nop.Params{def, def, def, def, def}
	out[1].LinkBWGBs, out[1].HopLatencyNs = 25, 140
	out[2].LinkBWGBs, out[2].HopLatencyNs = 200, 17.5
	out[3].LinkBWGBs = 0.001
	out[4].HopLatencyNs = 1e7
	return out
}

// sameMetrics reports whether two metrics are equal bit for bit.
func sameMetrics(a, b pipeline.Metrics) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := range va.NumField() {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if !fa.Equal(fb) {
			return false
		}
	}
	return true
}

// checkPlanMatchesBuild finishes a plan of p, made on m, on m under
// every NoP of nops, and requires each schedule to equal Build's on
// that package whole, and its layerwise and stagewise metrics to equal
// Build's bit for bit.
func checkPlanMatchesBuild(t *testing.T, p *workloads.Pipeline, m *chiplet.MCM, nops []nop.Params) {
	t.Helper()
	opts := sched.DefaultOptions()
	opts.Cache = costmodel.NewCache()
	pl, err := sched.NewPlan(p, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range nops {
		mn := sched.WithNoP(m, np)
		got, err := pl.Build(mn, opts.Cache)
		if err != nil {
			t.Fatalf("NoP %+v: %v", np, err)
		}
		want, err := sched.Build(p, mn, opts)
		if err != nil {
			t.Fatalf("NoP %+v: %v", np, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("NoP %+v: the finished plan differs from Build", np)
		}
		for _, mode := range []pipeline.Mode{pipeline.Layerwise, pipeline.Stagewise} {
			if g, w := pipeline.Compute(got, mode), pipeline.Compute(want, mode); !sameMetrics(g, w) {
				t.Errorf("NoP %+v, %v: metrics %+v, Build's %+v", np, mode, g, w)
			}
		}
	}
}

// TestPlanBuildMatchesBuild finishes one plan per package under five
// NoP settings, on the paper's package under both dataflows, the
// dual-NPU package, the monolithic baselines, mixed-type meshes, shared
// and large Simba meshes and a three-stage pipeline with a surplus
// pool: every schedule must equal Build's. On most packages no setting
// changes a decision of the additional sharding step, the one greedy
// loop that reads the NoP, so equality there cannot tell a finish that
// runs it from one that skips it; on mixed-8x5, 0.001 GB/s links and
// 10 ms hops do (7 and 4 steps against 6), which the test checks first.
// Then eight goroutines finish one store's plan of mixed-8x5 under
// every setting at once (run under -race by make race): the store must
// have balanced once, and every schedule must still equal Build's once
// all of them are done, so no finish wrote into another's state or the
// plan's.
func TestPlanBuildMatchesBuild(t *testing.T) {
	full := sched.Perception(t)
	three := full.FirstThreeStages()
	cases := []struct {
		name string
		p    *workloads.Pipeline
		m    *chiplet.MCM
	}{
		{"simba36-OS", full, chiplet.Simba36(dataflow.OS)},
		{"simba36-WS", full, chiplet.Simba36(dataflow.WS)},
		{"dual72", full, chiplet.DualSimba72(dataflow.OS)},
		{"mono1", three, chiplet.Baseline(1, dataflow.OS)},
		{"mono2", three, chiplet.Baseline(2, dataflow.OS)},
		{"mono4", full, chiplet.Baseline(4, dataflow.OS)},
		{"mixed-4x4", full, sched.MixedMesh(t, 4, 4)},
		{"mixed-6x6", full, sched.MixedMesh(t, 6, 6)},
		{"mixed-8x5", full, sched.MixedMesh(t, 8, 5)},
		{"simba-2x3", full, sched.SimbaMesh(t, 2, 3)},
		{"simba-8x8", full, sched.SimbaMesh(t, 8, 8)},
		{"simba-12x6", full, sched.SimbaMesh(t, 12, 6)},
		{"three-stage-4x4", three, sched.SimbaMesh(t, 4, 4)},
	}
	nops := planNoPs()
	m85 := sched.MixedMesh(t, 8, 5)
	var steps []int
	for _, np := range nops {
		s, err := sched.Build(full, sched.WithNoP(m85, np), sched.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, len(s.Steps))
	}
	if steps[3] == steps[0] || steps[4] == steps[0] {
		t.Errorf("mixed-8x5 takes %v steps under %v: no setting changes a decision", steps, nops)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkPlanMatchesBuild(t, tc.p, tc.m, nops) })
	}

	opts := sched.DefaultOptions()
	opts.Cache = costmodel.NewCache()
	want := make([]*sched.Schedule, len(nops))
	for i, np := range nops {
		var err error
		if want[i], err = sched.Build(full, sched.WithNoP(m85, np), opts); err != nil {
			t.Fatal(err)
		}
	}
	plans := sched.NewPlans()
	var wg sync.WaitGroup
	got := make([][]*sched.Schedule, 8)
	errs := make([]error, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]*sched.Schedule, len(nops))
			for k := range nops {
				i := (g + k) % len(nops)
				if got[g][i], errs[g] = plans.Build("mixed-8x5", full, sched.WithNoP(m85, nops[i]), opts); errs[g] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i, s := range got[g] {
			if !reflect.DeepEqual(s, want[i]) {
				t.Errorf("goroutine %d, NoP %+v: the finished plan differs from Build", g, nops[i])
			}
		}
	}
	if n := plans.Len(); n != 1 {
		t.Errorf("eight goroutines on one key left %d plans, want 1", n)
	}
}

// fuzzNoP maps two fuzzed floats to a valid NoP: a link bandwidth in
// (0, 1e4] GB/s and a hop latency in [0, 1e8) ns.
func fuzzNoP(bw, hop float64) nop.Params {
	p := nop.DefaultParams()
	if bw = math.Abs(bw); bw > 0 && !math.IsInf(bw, 0) {
		p.LinkBWGBs = math.Max(math.Mod(bw, 1e4), 1e-6)
	}
	if hop = math.Abs(hop); !math.IsNaN(hop) && !math.IsInf(hop, 0) {
		p.HopLatencyNs = math.Mod(hop, 1e8)
	}
	return p
}

// FuzzPlanMatchesBuild is FuzzBuildInvariants' package space, W and H
// in 1..8 with a library type per chiplet, OS or WS, on 3 or 4 stages,
// under a fuzzed link bandwidth and hop latency: a plan made on the
// package under the paper's NoP, finished under the fuzzed one, must
// equal Build there.
func FuzzPlanMatchesBuild(f *testing.F) {
	f.Add(uint8(5), uint8(5), false, false, []byte(nil), 25.0, 140.0)    // the paper's package, slow links
	f.Add(uint8(1), uint8(2), false, false, []byte(nil), 0.001, 35.0)    // 2x3: stages share the mesh
	f.Add(uint8(0), uint8(6), true, false, []byte{1, 2}, 200.0, 17.5)    // 1x7, WS, mixed
	f.Add(uint8(3), uint8(3), false, true, []byte(nil), 100.0, 1e7)      // 4x4, 3 stages, 10 ms hops
	f.Add(uint8(3), uint8(3), true, false, []byte{0, 1, 2, 3}, 50.0, 0.) // mixed 4x4
	f.Add(uint8(7), uint8(7), false, true, []byte{3, 3, 0, 2}, 400.0, 5.0)
	f.Add(uint8(4), uint8(4), true, true, []byte{2, 0, 0, 1, 3}, 1.0, 1e3) // uneven 5x5 split
	full := sched.Perception(f)
	three := full.FirstThreeStages()
	f.Fuzz(func(t *testing.T, w, h uint8, ws, threeStages bool, types []byte, bw, hop float64) {
		p, m := sched.FuzzPackage(t, full, three, w, h, ws, threeStages, types)
		checkPlanMatchesBuild(t, p, m, []nop.Params{fuzzNoP(bw, hop)})
	})
}
