package sched

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
	"strings"

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

type stageScratch struct {
	load   []float64 // per-ordinal load (computeMetrics), all zero between calls
	busy   []bool    // per-ordinal: a unit is placed there (place)
	order  []*Unit
	loads  []float64 // per-pool-index packed load (place)
	cands  []int32   // pool indices under the placement sort
	chains []*Unit   // the units by instance (computeMetrics)
}

// Chains yields the stage's serial unit chains, one per (model,
// replica) instance, in (model, replica) order. An instance's units
// partition its model's layers, so they run serially; a chain holds
// them in construction order, which is layer order, so its tail is the
// instance's terminal: the unit holding the model's final node. Each
// call sorts its own copy of the units, so several goroutines may read
// one built schedule.
func (ss *StageSchedule) Chains() iter.Seq[[]*Unit] {
	return chainRuns(byInstance(nil, ss.Units))
}

// cmpInstance orders units by (model, replica), the key of a chain.
func cmpInstance(a, b *Unit) int {
	if a.Model != b.Model {
		return strings.Compare(a.Model, b.Model)
	}
	return cmp.Compare(a.Replica, b.Replica)
}

// byInstance copies units into buf's storage, stably sorted by
// cmpInstance, and returns the copy: each instance's units form one
// run, in construction order.
func byInstance(buf, units []*Unit) []*Unit {
	buf = append(buf[:0], units...)
	slices.SortStableFunc(buf, cmpInstance)
	return buf
}

// chainRuns yields each instance's run of the units byInstance
// sorted.
func chainRuns(sorted []*Unit) iter.Seq[[]*Unit] {
	return func(yield func([]*Unit) bool) {
		for rest := sorted; len(rest) > 0; {
			n := 1
			for n < len(rest) && cmpInstance(rest[n], rest[0]) == 0 {
				n++
			}
			if !yield(rest[:n]) {
				return
			}
			rest = rest[n:]
		}
	}
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
				ss.Units = append(ss.Units, &Unit{StageIdx: idx, Model: g.Name, Replica: r, Nodes: g.Nodes(), graph: g, Shards: 1})
			}
		}
	case len(st.Graphs) == 1:
		g := st.Graphs[0]
		ss.Units = make([]*Unit, 0, len(g.Nodes()))
		for _, n := range g.Nodes() {
			if len(ss.Units) == 0 || n.Layer.Kind.ComputeBound() {
				ss.Units = append(ss.Units, &Unit{StageIdx: idx, Model: g.Name, Nodes: []*dnn.Node{n}, graph: g, Shards: 1})
			} else {
				u := ss.Units[len(ss.Units)-1]
				u.Nodes = append(u.Nodes, n)
			}
		}
	default:
		ss.Units = make([]*Unit, 0, len(st.Graphs))
		for _, g := range st.Graphs {
			ss.Units = append(ss.Units, &Unit{StageIdx: idx, Model: g.Name, Nodes: g.Nodes(), graph: g, Shards: 1})
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
	slices.SortStableFunc(order, func(a, b *Unit) int {
		return cmp.Compare(b.PerShardMs*float64(b.Shards), a.PerShardMs*float64(a.Shards))
	})
	for _, u := range order {
		idxs := ss.leastLoaded(loads, min(int(u.Shards), len(ss.Pool)))
		// The placement overwrites the unit's own backing array: nothing
		// reads a unit's previous placement after a refresh, and
		// transfers copy coordinates by value.
		coords := u.Chiplets[:0]
		for _, ix := range idxs {
			c := ss.Pool[ix]
			coords = append(coords, c)
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

// leastLoaded returns the n pool indices with minimal load (loads
// holds one per pool index, n <= len(loads)), in (load, pool index)
// order: the first n of a stable sort of the pool by load. It keeps
// them by bounded insertion in pool order, O(pool·n); a later index
// displaces a kept one only on a strictly smaller load, so ties go to
// the earlier (row-major) index.
func (ss *StageSchedule) leastLoaded(loads []float64, n int) []int32 {
	cands := ss.scratch.cands[:0]
	for i, l := range loads {
		if len(cands) == n {
			if n == 0 || l >= loads[cands[n-1]] {
				continue
			}
			cands = cands[:n-1]
		}
		j := len(cands)
		cands = append(cands, 0)
		for ; j > 0 && l < loads[cands[j-1]]; j-- {
			cands[j] = cands[j-1]
		}
		cands[j] = int32(i)
	}
	ss.scratch.cands = cands
	return cands
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

	// E2E of the stage: the longest instance chain (replicas and trunk
	// models run concurrently when they own disjoint chiplets), floored
	// by the stage's busiest chiplet (instances forced onto a shared
	// chiplet serialize). A chain sums its units' per-shard latencies
	// and, between consecutive units, the slowest shard transfer (shard
	// streams move in parallel); those transfers are the stage's
	// intra-stage NoP traffic. Chains come in a total order, so the NoP
	// sums below are deterministic; chain latencies feed a max, which
	// is order-free.
	ss.Transfers = ss.Transfers[:0]
	ss.E2EMs = 0
	ss.scratch.chains = byInstance(ss.scratch.chains, ss.Units)
	for chain := range chainRuns(ss.scratch.chains) {
		var ms float64
		for k, u := range chain {
			if k > 0 {
				n := len(ss.Transfers)
				ss.Transfers = AppendFanOut(ss.Transfers, chain[k-1], u)
				ms += slowest(ss.mcm.NoP, ss.Transfers[n:])
			}
			ms += u.PerShardMs
		}
		ss.E2EMs = maxf(ss.E2EMs, ms)
	}
	ss.E2EMs = maxf(ss.E2EMs, ss.PipeLatMs)
	ss.NoPLatMs, ss.NoPEnergyJ = 0, 0
	for _, t := range ss.Transfers {
		c := ss.mcm.NoP.Eval(t)
		ss.NoPLatMs += c.LatencyMs
		ss.NoPEnergyJ += c.EnergyJ
	}
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
