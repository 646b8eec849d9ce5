package sched

import (
	"fmt"
	"testing"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/nop"
	"mcmnpu/internal/workloads"
)

// mixedMesh builds a w x h typed mesh that cycles through the four
// library chiplet types, shifted by one per row, so every stage pool
// mixes accelerator configurations and Build takes the heterogeneous
// probe path.
func mixedMesh(t testing.TB, w, h int) *chiplet.MCM {
	t.Helper()
	types := []string{"simba", "eco", "big", "bwopt"}
	assign := make([]string, w*h)
	for i := range assign {
		assign[i] = types[(i+i/w)%len(types)]
	}
	m, err := chiplet.NewTyped(fmt.Sprintf("mixed-%dx%d", w, h), w, h, nop.DefaultParams(), dataflow.OS, assign)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func perception(t testing.TB) *workloads.Pipeline {
	t.Helper()
	p, err := workloads.Perception(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBuildUnitCostsMatchFreshEvaluation re-costs every built unit from
// scratch, uncached and without the build's unit-cost memo, and demands
// bit-identical values: PerShardMs is the worst case over the chiplets
// the unit occupies, EnergyJ and MACs are its cost on the stage's
// reference accelerator. A memo that returned a stale or worst-case
// value instead of the reference cost would change the mixed-type rows.
func TestBuildUnitCostsMatchFreshEvaluation(t *testing.T) {
	dual := perception(t)
	dual.Stages[workloads.StageTrunks].Replicas = 2
	cases := []struct {
		name string
		p    *workloads.Pipeline
		m    *chiplet.MCM
	}{
		{"paper-6x6-OS", perception(t), chiplet.Simba36(dataflow.OS)},
		{"dual72", dual, chiplet.DualSimba72(dataflow.OS)},
		{"mono4", perception(t).FirstThreeStages(), chiplet.Baseline(4, dataflow.OS)},
		{"mixed-4x4", perception(t), mixedMesh(t, 4, 4)},
		{"mixed-6x6", perception(t), mixedMesh(t, 6, 6)},
	}
	cache := costmodel.NewCache()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Cache = cache
			s, err := Build(tc.p, tc.m, opts)
			if err != nil {
				t.Fatal(err)
			}
			units := 0
			for i := range s.Pipeline.Stages {
				ss := s.Stages[i]
				ref := s.MCM.At(ss.Pool[0])
				for _, u := range ss.Units {
					units++
					fresh := &Unit{Nodes: u.Nodes, Shards: u.Shards}
					if err := fresh.evalOn(ref, nil, nil); err != nil {
						t.Fatal(err)
					}
					if fresh.EnergyJ != u.EnergyJ || fresh.MACs != u.MACs {
						t.Errorf("stage %s unit %s: energy/MACs %v/%d, fresh %v/%d",
							ss.Name, u.Label(), u.EnergyJ, u.MACs, fresh.EnergyJ, fresh.MACs)
					}
					var worst float64
					for _, c := range u.Chiplets {
						if err := fresh.evalOn(s.MCM.At(c), nil, nil); err != nil {
							t.Fatal(err)
						}
						worst = maxf(worst, fresh.PerShardMs)
					}
					if worst != u.PerShardMs {
						t.Errorf("stage %s unit %s on %v: PerShardMs %v, fresh worst case %v",
							ss.Name, u.Label(), u.Chiplets, u.PerShardMs, worst)
					}
				}
			}
			if units == 0 {
				t.Fatal("schedule has no units")
			}
		})
	}
}

// TestBuildSharedCacheLookups guards the number of shared-cache lookups
// one Build of the paper's 6x6/OS point makes on a fresh cache. The
// count is deterministic: Algorithm 1 re-costs units on every greedy
// step, and the build-scoped memo must keep those repeats off the
// shared cache. Growth means a path is re-costing through it again;
// before the memo, the same build made 8,091 lookups.
func TestBuildSharedCacheLookups(t *testing.T) {
	const maxLookups = 746
	cache := costmodel.NewCache()
	opts := DefaultOptions()
	opts.Cache = cache
	if _, err := Build(perception(t), chiplet.Simba36(dataflow.OS), opts); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if got := st.Hits + st.Misses; got > maxLookups {
		t.Errorf("one paper-point Build made %d shared-cache lookups (%d hits, %d misses), want <= %d",
			got, st.Hits, st.Misses, maxLookups)
	}
}
