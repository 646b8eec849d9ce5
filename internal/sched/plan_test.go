package sched

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/nop"
)

// withNoP returns a copy of m under the NoP p: the same grid and
// accelerators, another interconnect.
func withNoP(m *chiplet.MCM, p nop.Params) *chiplet.MCM {
	c := *m
	c.NoP = p
	return &c
}

// balancedStage and balancedUnit are what balance leaves in a stage and
// a unit, without the package they point at.
type balancedStage struct {
	Name                      string
	Index                     int
	Pool                      []nop.Coord
	Units                     []balancedUnit
	PipeLatMs, E2EMs, EnergyJ float64
	MACs                      int64
	Idle                      int
}

type balancedUnit struct {
	StageIdx, Replica   int
	Model               string
	First, Nodes        int
	Shards              int64
	Chiplets            []nop.Coord
	PerShardMs, EnergyJ float64
	MACs                int64
}

// balancedState is a plan's state as plain values: every stage and
// unit, each unit's placement, the steps and the base.
func balancedState(pl *Plan) (stages []balancedStage, steps []Step, baseMs float64) {
	for _, ss := range pl.s.Stages {
		st := balancedStage{Name: ss.Name, Index: ss.Index, Pool: ss.Pool, PipeLatMs: ss.PipeLatMs,
			E2EMs: ss.E2EMs, EnergyJ: ss.EnergyJ, MACs: ss.MACs, Idle: ss.idle}
		for _, u := range ss.Units {
			st.Units = append(st.Units, balancedUnit{StageIdx: u.StageIdx, Replica: u.Replica, Model: u.Model,
				First: u.Nodes[0].ID, Nodes: len(u.Nodes), Shards: u.Shards, Chiplets: u.Chiplets,
				PerShardMs: u.PerShardMs, EnergyJ: u.EnergyJ, MACs: u.MACs})
		}
		stages = append(stages, st)
	}
	return stages, pl.s.Steps, pl.s.BaseMs
}

// TestPlanReadsNoNoP pins the invariant Plan rests on: nothing balance
// decides reads the package's NoP. A plan made on a package whose NoP
// is NaN in every field, where any NoP latency or energy read would
// turn a comparison or a sum into NaN, must equal the plan on the
// default NoP in every stage, unit, placement, step and base, and
// finishing it on the real package must equal Build. An equality test
// over real NoP settings cannot catch a balance that reads the NoP:
// no setting found so far makes Algorithm 1 decide differently.
func TestPlanReadsNoNoP(t *testing.T) {
	nan := nop.Params{LinkBWGBs: math.NaN(), HopLatencyNs: math.NaN(), EnergyPJBit: math.NaN()}
	cases := []struct {
		name string
		m    *chiplet.MCM
	}{
		{"simba36", chiplet.Simba36(dataflow.OS)},
		{"mixed-6x6", mixedMesh(t, 6, 6)},
		{"shared-2x3", simbaMesh(t, 2, 3)},
		{"simba-12x6", simbaMesh(t, 12, 6)},
	}
	p := perception(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Cache = costmodel.NewCache()
			want, err := NewPlan(p, tc.m, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewPlan(p, withNoP(tc.m, nan), opts)
			if err != nil {
				t.Fatal(err)
			}
			gotStages, gotSteps, gotBase := balancedState(got)
			wantStages, wantSteps, wantBase := balancedState(want)
			if !reflect.DeepEqual(gotStages, wantStages) {
				t.Errorf("stages balanced under a NaN NoP differ from the default NoP's")
			}
			if !reflect.DeepEqual(gotSteps, wantSteps) || gotBase != wantBase {
				t.Errorf("steps and base under a NaN NoP differ:\n got %v, base %v\nwant %v, base %v",
					gotSteps, gotBase, wantSteps, wantBase)
			}
			s, err := got.Build(tc.m, opts.Cache)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Build(p, tc.m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s, ref) {
				t.Errorf("the NaN-NoP plan finished on the package differs from Build:\n got %s\nwant %s",
					fingerprint(s), fingerprint(ref))
			}
		})
	}
}

// TestPlanRejectsOtherPackage: a plan finishes only on its own grid
// and chiplets. Another grid, another type assignment or another
// dataflow is refused; another NoP, or the same chiplets behind other
// accelerator objects, is not.
func TestPlanRejectsOtherPackage(t *testing.T) {
	p := perception(t)
	pl, err := NewPlan(p, chiplet.Simba36(dataflow.OS), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eco, err := chiplet.NewTyped("eco-6x6", 6, 6, nop.DefaultParams(), dataflow.OS, slices.Repeat([]string{"eco"}, 36))
	if err != nil {
		t.Fatal(err)
	}
	fast := nop.DefaultParams()
	fast.LinkBWGBs = 400
	for _, tc := range []struct {
		name string
		m    *chiplet.MCM
		ok   bool
	}{
		{"simba-4x4", simbaMesh(t, 4, 4), false},
		{"simba-9x4", simbaMesh(t, 9, 4), false},
		{"mixed-6x6", mixedMesh(t, 6, 6), false},
		{"eco-6x6", eco, false},
		{"simba36-WS", chiplet.Simba36(dataflow.WS), false},
		{"simba36-400GBs", withNoP(chiplet.Simba36(dataflow.OS), fast), true},
		{"simba-6x6", simbaMesh(t, 6, 6), true},
	} {
		_, err := pl.Build(tc.m, nil)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Build error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestPlansBalanceOncePerKey: a store makes one plan per key, a
// tolerance of 0 and the default naming one key, however many NoPs
// finish it, with Build's result each time. (scenario's
// TestPrepareOnPastTheBound fills a store past MaxPlans.)
func TestPlansBalanceOncePerKey(t *testing.T) {
	p := perception(t).FirstThreeStages()
	m := simbaMesh(t, 4, 4)
	opts := DefaultOptions()
	ps := NewPlans()
	slow := nop.DefaultParams()
	slow.LinkBWGBs = 25
	for _, nopp := range []nop.Params{nop.DefaultParams(), slow} {
		for _, tol := range []float64{0, DefaultTolerance} { // one resolved tolerance
			opts.Tolerance = tol
			got, err := ps.Build("simba-4x4", p, withNoP(m, nopp), opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Build(p, withNoP(m, nopp), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("NoP %+v, tolerance %v: the store's schedule differs from Build", nopp, tol)
			}
		}
	}
	if n := ps.Len(); n != 1 {
		t.Errorf("the store holds %d plans after one key, want 1", n)
	}
}
