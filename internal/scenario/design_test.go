package scenario

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mcmnpu/internal/nop"
	"mcmnpu/internal/sched"
	"mcmnpu/internal/sweep"
)

// TestDesignNamesWhatPrepareBuilds holds Design to what Prepare builds,
// over packages that build one package under different selectors
// (simba36 and mesh:6x6, dual72 and mesh:12x6 under one assignment),
// presets that build their own, type assignments, both dataflows, NoP
// overrides equal to the default and not, and tolerances equal once
// resolved. Specs of one group must name one design and specs of two
// groups two; two specs that name one design must instantiate equal
// packages, compile one workload, resolve one tolerance and prepare
// equal schedules and metrics. An assignment of the paper's chiplet
// everywhere builds an equal package but names a design of its own:
// Design compares assignments, not the accelerators they select. Each
// Design's NoP is its package's.
func TestDesignNamesWhatPrepareBuilds(t *testing.T) {
	def, slow := nop.DefaultParams(), nop.DefaultParams()
	slow.LinkBWGBs = 25
	cams := registry[0].Workload
	cams.Cameras = 6
	cases := []struct {
		group string
		spec  Spec
	}{
		{"paper", Spec{Name: "simba36"}},
		{"paper", Spec{Name: "simba36-tol", Tolerance: sched.DefaultTolerance}},
		{"paper", Spec{Name: "mesh-6x6", Package: "mesh:6x6"}},
		{"paper", Spec{Name: "mesh-06x6", Package: "mesh:06x6"}},
		{"paper", Spec{Name: "mesh-6x6-nop", Package: "mesh:6x6", NoP: &def}},
		{"slow", Spec{Name: "simba36-slow", NoP: &slow}},
		{"tol10", Spec{Name: "simba36-tol10", Tolerance: 0.1}},
		{"ws", Spec{Name: "simba36-ws", Dataflow: "WS"}},
		{"ws", Spec{Name: "mesh-6x6-ws", Package: "mesh:6x6", Dataflow: "ws"}},
		{"typed-simba", Spec{Name: "simba36-simba", ChipletTypes: []string{"simba"}}},
		{"typed-simba", Spec{Name: "mesh-6x6-simba36", Package: "mesh:6x6", ChipletTypes: []string{"simba*36"}}},
		{"cams", Spec{Name: "simba36-cams", Workload: cams}},
		{"dual72", Spec{Name: "dual72", Package: "dual72"}},
		{"12x6", Spec{Name: "mesh-12x6", Package: "mesh:12x6"}},
		{"eco-12x6", Spec{Name: "dual72-eco", Package: "dual72", ChipletTypes: []string{"eco"}}},
		{"eco-12x6", Spec{Name: "mesh-12x6-eco", Package: "mesh:12x6", ChipletTypes: []string{"eco*72"}}},
		{"mixed-12x6", Spec{Name: "mesh-12x6-mixed", Package: "mesh:12x6", ChipletTypes: []string{"eco*36", "big*36"}}},
		{"mono1", Spec{Name: "mono1", Package: "mono1"}},
		{"mono4", Spec{Name: "mono4", Package: "mono4"}},
		{"mono4", Spec{Name: "mono4-nop", Package: "mono4", NoP: &def}},
	}
	specs := make([]Spec, len(cases))
	for i, c := range cases {
		specs[i] = c.spec
	}
	designs := make([]Design, len(specs))
	preps := make([]*Prepared, len(specs))
	for i, sp := range specs {
		var err error
		if designs[i], err = sp.Design(); err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if preps[i], err = Prepare(sp, nil); err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if got, want := designs[i].nop, preps[i].Schedule.MCM.NoP; got != want {
			t.Errorf("%s: Design's NoP %+v, the package's %+v", sp.Name, got, want)
		}
	}
	for i := range specs {
		for j := range specs {
			one := designs[i] == designs[j]
			if want := cases[i].group == cases[j].group; one != want {
				t.Errorf("%s and %s: one design %v, want %v", specs[i].Name, specs[j].Name, one, want)
			}
			a, b := preps[i], preps[j]
			if one && (!reflect.DeepEqual(a.Schedule.MCM, b.Schedule.MCM) || a.Schedule.Pipeline != b.Schedule.Pipeline ||
				a.Schedule.Opts.Tolerance != b.Schedule.Opts.Tolerance) {
				t.Errorf("%s and %s name one design but build different packages, workloads or tolerances",
					specs[i].Name, specs[j].Name)
			}
			if one && (!reflect.DeepEqual(a.Schedule, b.Schedule) || a.Metrics != b.Metrics) {
				t.Errorf("%s and %s name one design but prepare differently", specs[i].Name, specs[j].Name)
			}
		}
	}
}

// checkPrepareOn requires PrepareOn of sp on eng to return what Prepare
// returns on eng's cache.
func checkPrepareOn(t *testing.T, eng *sweep.Engine, sp Spec) {
	t.Helper()
	got, err := PrepareOn(sp, eng)
	if err != nil {
		t.Fatalf("%s: %v", sp.Name, err)
	}
	want, err := Prepare(sp, eng.Cache())
	if err != nil {
		t.Fatalf("%s: %v", sp.Name, err)
	}
	if !reflect.DeepEqual(got.Spec, want.Spec) || !reflect.DeepEqual(got.Schedule, want.Schedule) || got.Metrics != want.Metrics {
		t.Errorf("%s: PrepareOn differs from Prepare", sp.Name)
	}
}

// TestPrepareOnKeepsOnePlanPerDesign: four NoP variants of one spec,
// one of them equal to the default, prepare through one plan in the
// engine's store, and a spec without a NoP override builds directly;
// each returns what Prepare returns.
func TestPrepareOnKeepsOnePlanPerDesign(t *testing.T) {
	eng := sweep.New(1)
	sp, err := Lookup("urban-8cam")
	if err != nil {
		t.Fatal(err)
	}
	checkPrepareOn(t, eng, sp)
	if n := eng.Plans().Len(); n != 0 {
		t.Fatalf("a spec without a NoP override left %d plans, want 0", n)
	}
	for _, bw := range []float64{100, 25, 50, 400} {
		link := nop.DefaultParams()
		link.LinkBWGBs = bw
		v := sp
		v.Name, v.NoP = fmt.Sprintf("urban-8cam-%gGBs", bw), &link
		checkPrepareOn(t, eng, v)
	}
	if n := eng.Plans().Len(); n != 1 {
		t.Errorf("four NoP variants of one design left %d plans, want 1", n)
	}
}

// TestPrepareOnRejectsNaN: a spec with a NaN tolerance and a NoP
// override fails validation before it reaches the engine's plan store,
// however often it is prepared.
func TestPrepareOnRejectsNaN(t *testing.T) {
	eng := sweep.New(1)
	link := nop.DefaultParams()
	link.LinkBWGBs = 50
	sp := Spec{Name: "nan", Tolerance: math.NaN(), NoP: &link}
	for range 3 {
		if _, err := PrepareOn(sp, eng); err == nil {
			t.Fatal("PrepareOn accepted a NaN tolerance")
		}
	}
	if n := eng.Plans().Len(); n != 0 {
		t.Errorf("a rejected spec left %d plans, want 0", n)
	}
}

// TestPrepareOnPastTheBound prepares one design more than the plan
// store holds, each with a NoP override: the store stops at its bound,
// and every result, the last built directly, is Prepare's.
func TestPrepareOnPastTheBound(t *testing.T) {
	eng := sweep.New(1)
	link := nop.DefaultParams()
	link.LinkBWGBs = 50
	for i := 1; i <= sched.MaxPlans+1; i++ {
		checkPrepareOn(t, eng, Spec{Name: fmt.Sprintf("tol-%d", i), Package: "mesh:4x4",
			Tolerance: float64(i) / 100, NoP: &link})
	}
	if n := eng.Plans().Len(); n != sched.MaxPlans {
		t.Errorf("%d designs left %d plans, want the bound %d", sched.MaxPlans+1, n, sched.MaxPlans)
	}
}
