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

// freshCost is the reference a unit's cost is checked against: a
// per-node sum, in node order, of uncached costmodel.ShardedLayerOn at
// the unit's shard count. It shares no code with the scheduler's
// costing path (memo, node-cost vectors, shared cache).
func freshCost(t *testing.T, u *Unit, a *costmodel.Accel) unitCost {
	t.Helper()
	var c unitCost
	for _, n := range u.Nodes {
		lc, err := costmodel.ShardedLayerOn(n.Layer, u.Shards, a)
		if err != nil {
			t.Fatal(err)
		}
		c.ms += lc.LatencyMs
		c.ej += lc.EnergyJ * float64(u.Shards)
		c.macs += n.Layer.MACs()
	}
	return c
}

// TestBuildUnitCostsMatchFreshEvaluation re-costs every built unit from
// scratch with freshCost and demands bit-identical values: PerShardMs
// is the worst case over the chiplets the unit occupies, EnergyJ and
// MACs are its cost on the stage's reference accelerator. A memo that
// returned a stale or worst-case value instead of the reference cost
// would change the mixed-type rows, and a node-cost vector read at the
// wrong index would change every row.
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
					if fresh := freshCost(t, u, ref); fresh.ej != u.EnergyJ || fresh.macs != u.MACs {
						t.Errorf("stage %s unit %s: energy/MACs %v/%d, fresh %v/%d",
							ss.Name, u.Label(), u.EnergyJ, u.MACs, fresh.ej, fresh.macs)
					}
					var worst float64
					for _, c := range u.Chiplets {
						worst = maxf(worst, freshCost(t, u, s.MCM.At(c)).ms)
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

// TestBuildSharedCacheLookups guards the number of per-layer
// shared-cache lookups one Build of the paper's 6x6/OS point makes on
// a fresh cache. The count is deterministic: Algorithm 1 re-costs units
// on every greedy step, the build-scoped memo keeps those repeats off
// the shared cache, and a memo miss of an unsharded unit reads its
// graph's node-cost vector, which looks up each node once per
// (graph, accelerator configuration). The build fills vectors with 181
// lookups and makes 7 sharded ones: 100 misses and 88 hits, since many
// layers share a shape. Growth means a path is costing layer by layer
// again: before the memo the same build made 8,091 lookups, and 746
// before the node-cost vectors.
func TestBuildSharedCacheLookups(t *testing.T) {
	const maxLookups = 188
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

// raceEnabled reports a -race build (race_test.go sets it).
var raceEnabled bool

// TestBuildAllocations guards the allocations of one Build on a warm
// cache, on the paper's 6x6/OS package and on BenchmarkSchedulerHetero's
// mixed-type 6x6 package. Placement writes each unit's chiplets into
// the unit's own slice and unsharded units cost from shared node-cost
// vectors, so the count no longer grows with refreshes and probes: the
// same builds made 565 and 3,834 allocations when placement allocated a
// slice per unit per refresh and the per-layer lookups were costed one
// by one. The mixed package reads 688 or 689: Go's swiss-table maps
// seed their hashes per map, which moves a growth by one allocation.
// The race detector's instrumentation allocates more, so the test
// skips under -race.
func TestBuildAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cases := []struct {
		name      string
		m         *chiplet.MCM
		maxAllocs float64
	}{
		{"simba36", chiplet.Simba36(dataflow.OS), 328},
		{"mixed-6x6", mixedMesh(t, 6, 6), 689},
	}
	p := perception(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Cache = costmodel.NewCache()
			build := func() {
				if _, err := Build(p, tc.m, opts); err != nil {
					t.Fatal(err)
				}
			}
			build() // warm the shared cache
			if got := testing.AllocsPerRun(10, build); got > tc.maxAllocs {
				t.Errorf("Build on a warm cache allocates %v times, want <= %v", got, tc.maxAllocs)
			}
		})
	}
}
