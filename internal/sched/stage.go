package sched

import (
	"fmt"
	"sort"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dnn"
	"mcmnpu/internal/nop"
	"mcmnpu/internal/workloads"
)

// StageSchedule holds the mapping of one pipeline stage onto its chiplet
// pool.
type StageSchedule struct {
	Name  string
	Index int
	Pool  []nop.Coord
	Units []*Unit

	// Derived metrics (recomputed by refresh).
	PipeLatMs  float64 // max per-chiplet busy time (layerwise pipelining)
	E2EMs      float64 // critical-path latency through the stage, incl NoP
	EnergyJ    float64 // compute energy (NoP accounted separately)
	MACs       int64
	NoPLatMs   float64
	NoPEnergyJ float64
	Transfers  []nop.Transfer

	mcm   *chiplet.MCM
	cache *costmodel.Cache
	costs unitCosts // the owning Build's unit-cost memo; nil outside Build
	idle  int       // pool chiplets no unit is placed on (place, borrowChiplet)

	// Reusable working state: Algorithm 1 refreshes each stage dozens
	// of times per schedule, so per-refresh maps and slices are owned
	// by the stage and cleared instead of reallocated.
	scratch stageScratch
}

// chainGroup identifies one (replica, model) serial unit chain of the
// stage.
type chainGroup struct {
	replica int
	model   string
}

type stageScratch struct {
	load   []float64 // per-ordinal load (computeMetrics), all zero between calls
	busy   []bool    // per-ordinal: a unit is placed there (place)
	order  []*Unit
	loads  []float64 // per-pool-index packed load (place)
	cands  []int32   // pool indices under the placement sort
	groups []chainGroup
}

// newStageSchedule builds a stage's initial units on a copy of pool
// (borrowChiplet splices pools in place, and few-chip packages share
// one coordinate slice across stages):
//
//   - Replicated stages (FE+BFPN x 8 cameras) get one whole-model unit
//     per replica.
//   - Single-model fusion stages get one unit per layer (tiny
//     non-compute layers fold into their predecessor unit).
//   - Multi-model stages (trunks) get one whole-model unit per model.
//
// Units share the pipeline's node slices read-only: nothing appends to
// a unit's nodes after construction, segmentation only re-slices them.
// costs is the unit-cost memo of the calling Build (nil for none).
func newStageSchedule(idx int, st workloads.Stage, pool []nop.Coord, m *chiplet.MCM, cache *costmodel.Cache, costs unitCosts) *StageSchedule {
	ss := &StageSchedule{Name: st.Name, Index: idx, Pool: append([]nop.Coord(nil), pool...), mcm: m, cache: cache, costs: costs,
		scratch: stageScratch{load: make([]float64, m.Chiplets()), busy: make([]bool, m.Chiplets())}}
	switch {
	case st.Replicas > 1:
		ss.Units = make([]*Unit, 0, st.Replicas*len(st.Graphs))
		for r := 1; r <= st.Replicas; r++ {
			for _, g := range st.Graphs {
				ss.Units = append(ss.Units, &Unit{StageIdx: idx, Model: g.Name, Replica: r, Nodes: g.Nodes(), Shards: 1})
			}
		}
	case len(st.Graphs) == 1:
		g := st.Graphs[0]
		ss.Units = make([]*Unit, 0, len(g.Nodes()))
		for _, n := range g.Nodes() {
			if len(ss.Units) == 0 || n.Layer.Kind.ComputeBound() {
				ss.Units = append(ss.Units, &Unit{StageIdx: idx, Model: g.Name, Nodes: []*dnn.Node{n}, Shards: 1})
			} else {
				u := ss.Units[len(ss.Units)-1]
				u.Nodes = append(u.Nodes, n)
			}
		}
	default:
		ss.Units = make([]*Unit, 0, len(st.Graphs))
		for _, g := range st.Graphs {
			ss.Units = append(ss.Units, &Unit{StageIdx: idx, Model: g.Name, Nodes: g.Nodes(), Shards: 1})
		}
	}
	return ss
}

// refresh re-evaluates unit costs, re-places units onto the pool (LPT),
// and recomputes the stage metrics.
//
//perf:hot — called per improvement iteration per stage; uses stageScratch, not fresh slices
func (ss *StageSchedule) refresh() error {
	if len(ss.Pool) == 0 {
		if len(ss.Units) == 0 {
			return nil // a surplus pool that borrowing drained
		}
		return fmt.Errorf("sched: stage %s has an empty chiplet pool", ss.Name)
	}
	// Evaluate on the pool's (homogeneous) accelerator.
	ref := ss.mcm.At(ss.Pool[0])
	refClass := ss.mcm.Class(ss.mcm.Ord(ss.Pool[0]))
	for _, u := range ss.Units {
		if u.Shards > int64(len(ss.Pool)) {
			u.Shards = int64(len(ss.Pool))
		}
		if err := u.evalOn(ref, ss.cache, ss.costs); err != nil {
			return err
		}
	}
	ss.place()
	// Re-evaluate heterogeneous pools against their actual chiplets. A
	// chiplet in the reference's equivalence class (most pools are
	// homogeneous meshes of distinct-but-identical Accel objects) would
	// probe to exactly u.PerShardMs — the cost model reads values, not
	// identities — so only genuinely different configurations probe.
	// Probes go through the build's unit-cost memo, which returns the
	// reference cost on that accelerator, never the worst case this
	// loop writes back: typed packages share one accel instance per
	// type, so a unit spread over k chiplets of one non-reference type
	// is costed once per build, not k times per refresh.
	for _, u := range ss.Units {
		worst := 0.0
		for _, c := range u.Chiplets {
			ms := u.PerShardMs
			if ss.mcm.Class(ss.mcm.Ord(c)) != refClass {
				pc, err := ss.costs.cost(u, ss.mcm.At(c), ss.cache)
				if err != nil {
					return err
				}
				ms = pc.ms
			}
			worst = maxf(worst, ms)
		}
		if worst > 0 {
			u.PerShardMs = worst
		}
	}
	ss.computeMetrics()
	return nil
}

// place assigns each unit's shards to chiplets with longest-processing-
// time-first packing: heavier units claim the least-loaded chiplets.
// Loads are tracked per pool index — plain array reads in the
// selection loop, no coordinate hashing. It marks the chiplets it uses
// busy and counts the rest of the pool as idle.
func (ss *StageSchedule) place() {
	if cap(ss.scratch.loads) < len(ss.Pool) {
		ss.scratch.loads = make([]float64, len(ss.Pool))
	}
	loads := ss.scratch.loads[:len(ss.Pool)]
	for i := range loads {
		loads[i] = 0
	}
	// Only pool chiplets are ever marked: a chiplet leaves a pool only
	// while idle (borrowChiplet).
	busy := ss.scratch.busy
	for _, c := range ss.Pool {
		busy[ss.mcm.Ord(c)] = false
	}
	ss.idle = len(ss.Pool)
	order := append(ss.scratch.order[:0], ss.Units...)
	ss.scratch.order = order
	sort.SliceStable(order, func(i, j int) bool {
		return order[i].PerShardMs*float64(order[i].Shards) >
			order[j].PerShardMs*float64(order[j].Shards)
	})
	for _, u := range order {
		n := int(u.Shards)
		if n > len(ss.Pool) {
			n = len(ss.Pool)
		}
		idxs := ss.leastLoaded(loads, n)
		//lint:allow hotpathalloc -- coords escapes as u.Chiplets, the placement's per-unit output; reusing scratch here would alias every unit's slice
		coords := make([]nop.Coord, len(idxs))
		for i, ix := range idxs {
			c := ss.Pool[ix]
			coords[i] = c
			if o := ss.mcm.Ord(c); !busy[o] {
				busy[o] = true
				ss.idle--
			}
		}
		sortCoords(coords, ss.mcm.GridW)
		u.Chiplets = coords
		for _, ix := range idxs {
			loads[ix] += u.PerShardMs
		}
	}
}

// leastLoaded picks the n pool indices with minimal load, deterministic
// by pool (row-major) order on ties: the candidate list starts in pool
// order and the insertion sort is stable, matching the
// sort.SliceStable behaviour it replaces.
func (ss *StageSchedule) leastLoaded(loads []float64, n int) []int32 {
	cands := ss.scratch.cands[:0]
	for i := range ss.Pool {
		cands = append(cands, int32(i))
	}
	ss.scratch.cands = cands
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && loads[cands[j]] < loads[cands[j-1]]; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	if n > len(cands) {
		n = len(cands)
	}
	return cands[:n]
}

// computeMetrics derives pipe latency, E2E, energy and intra-stage NoP
// traffic from the current placement.
func (ss *StageSchedule) computeMetrics() {
	ss.EnergyJ = 0
	ss.MACs = 0
	for _, u := range ss.Units {
		ss.EnergyJ += u.EnergyJ
		ss.MACs += u.MACs
	}
	addLoads(ss.scratch.load, ss.mcm, ss.Units)
	ss.PipeLatMs = drainMaxLoad(ss.scratch.load, ss.mcm, ss.Units, 0)

	// Intra-stage transfers: edges between units of the same instance.
	// Each (replica, model) group is one serial chain; groups are walked
	// in (replica, model) order — deterministic, where the map-based
	// predecessor visited replicas in random map order. Chain latencies
	// feed a max (order-free) and replica chains are value-symmetric, so
	// the visit order does not change any metric.
	ss.Transfers = ss.Transfers[:0]
	groups := ss.scratch.groups[:0]
	for _, u := range ss.Units {
		found := false
		for _, g := range groups {
			if g.replica == u.Replica && g.model == u.Model {
				found = true
				break
			}
		}
		if !found {
			groups = append(groups, chainGroup{replica: u.Replica, model: u.Model})
		}
	}
	ss.scratch.groups = groups
	for i := 1; i < len(groups); i++ {
		for j := i; j > 0 && (groups[j].replica < groups[j-1].replica ||
			(groups[j].replica == groups[j-1].replica && groups[j].model < groups[j-1].model)); j-- {
			groups[j], groups[j-1] = groups[j-1], groups[j]
		}
	}

	// E2E of the stage: the longest instance chain (replicas and trunk
	// models run concurrently when they own disjoint chiplets), floored
	// by the stage's busiest chiplet (instances forced onto a shared
	// chiplet serialize).
	ss.NoPLatMs, ss.NoPEnergyJ = 0, 0
	ss.E2EMs = 0
	for _, g := range groups {
		ss.E2EMs = maxf(ss.E2EMs, ss.chainPath(g))
	}
	ss.E2EMs = maxf(ss.E2EMs, ss.PipeLatMs)
	for _, t := range ss.Transfers {
		c := ss.mcm.NoP.Eval(t)
		ss.NoPLatMs += c.LatencyMs
		ss.NoPEnergyJ += c.EnergyJ
	}
}

// chainPath walks the units of one (replica, model) instance in
// construction order, summing per-shard latencies and inter-unit
// transfer latencies, and records the transfers. Units of the same
// instance are serial (they partition one model's layers).
func (ss *StageSchedule) chainPath(g chainGroup) float64 {
	var chain float64
	var prev *Unit
	for _, u := range ss.Units {
		if u.Replica != g.replica || u.Model != g.model {
			continue
		}
		if prev != nil {
			chain += ss.linkUnits(prev, u)
		}
		chain += u.PerShardMs
		prev = u
	}
	return chain
}

// linkUnits records the NoP transfers from producer u to consumer v and
// returns the added critical-path latency (the slowest single shard
// transfer; shard streams move in parallel).
func (ss *StageSchedule) linkUnits(u, v *Unit) float64 {
	bytes := u.outputBytes()
	if bytes <= 0 || len(u.Chiplets) == 0 || len(v.Chiplets) == 0 {
		return 0
	}
	per := bytes / int64(len(u.Chiplets))
	var worst float64
	for i, src := range u.Chiplets {
		dst := v.Chiplets[i%len(v.Chiplets)]
		t := nop.Transfer{Src: src, Dst: dst, Bytes: per, Label: u.Nodes[len(u.Nodes)-1].Layer.Name}
		ss.Transfers = append(ss.Transfers, t)
		worst = maxf(worst, ss.mcm.NoP.Eval(t).LatencyMs)
	}
	return worst
}

// addLoads adds each unit's per-shard latency to the load of every
// chiplet ordinal it occupies. It sums in unit order, which fixes the
// last bits of each chiplet's load (float addition is not associative).
func addLoads(load []float64, m *chiplet.MCM, units []*Unit) {
	for _, u := range units {
		for _, c := range u.Chiplets {
			load[m.Ord(c)] += u.PerShardMs
		}
	}
}

// drainMaxLoad returns the larger of v and the maximum load over the
// chiplets units occupy, and zeroes those entries, so load returns to
// all zero without a pass over the whole mesh.
func drainMaxLoad(load []float64, m *chiplet.MCM, units []*Unit, v float64) float64 {
	for _, u := range units {
		for _, c := range u.Chiplets {
			o := m.Ord(c)
			v = maxf(v, load[o])
			load[o] = 0
		}
	}
	return v
}

// bottleneckUnit returns the unit with the largest per-shard latency
// that can still be sharded or segmented; nil if none.
func (ss *StageSchedule) bottleneckUnit(skip map[*Unit]bool) *Unit {
	var best *Unit
	for _, u := range ss.Units {
		if skip[u] {
			continue
		}
		improvable := u.canSegment() || u.nextShards(len(ss.Pool)) > u.Shards
		if !improvable {
			continue
		}
		if best == nil || u.PerShardMs > best.PerShardMs {
			best = u
		}
	}
	return best
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
