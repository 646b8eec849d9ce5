package sched

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
	"strings"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/costmodel"
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

	// Derived metrics. refresh recomputes PipeLatMs, EnergyJ and MACs,
	// the fields the greedy loop reads. computeMetrics derives E2EMs,
	// NoPLatMs, NoPEnergyJ and Transfers from the placement, only where
	// they are read: in useIdleChiplets, and for every stage once Build's
	// final refresh has placed it.
	PipeLatMs  float64 // max per-chiplet busy time (layerwise pipelining)
	E2EMs      float64 // critical-path latency through the stage, incl NoP
	EnergyJ    float64 // compute energy (NoP accounted separately)
	MACs       int64
	NoPLatMs   float64
	NoPEnergyJ float64
	Transfers  []nop.Transfer

	mcm   *chiplet.MCM
	cache *costmodel.Cache
	rows  *unitRows // the owning build's unit-cost rows; nil once released
	idle  int       // pool chiplets no unit is placed on (place, borrowChiplet)

	// Reusable working state: Algorithm 1 refreshes each stage dozens
	// of times per schedule, so per-refresh slices live in the build's
	// workspace and are cleared instead of reallocated. nil once
	// released.
	scratch *stageScratch
}

type stageScratch struct {
	load   []float64 // per-ordinal load (refresh), all zero between calls
	busy   []bool    // per-ordinal: a unit is placed there (place)
	order  []*Unit
	loads  []float64 // per-pool-index packed load (place)
	ix     []int32   // the storage of rank, head and ords
	rank   []int32   // pool indices in (load, pool index) order (place)
	head   []int32   // the rank prefix a unit takes (place)
	ords   []int32   // a unit's chiplet ordinals (place)
	chains []*Unit   // the units by instance (computeMetrics)
}

// grab sizes the scratch for an n-chiplet mesh, keeping storage an
// earlier build left, and zeroes what a fresh scratch reads as zero:
// every load and busy flag. A pool never holds more chiplets than the
// mesh, so placement, which slices its per-pool-index scratch to the
// pool, never grows it; the other slices are written before they are
// read.
func (sc *stageScratch) grab(n int) {
	if cap(sc.load) < n {
		sc.load = make([]float64, n)
		sc.busy = make([]bool, n)
		sc.loads = make([]float64, n)
		sc.ix = make([]int32, 3*n)
	}
	sc.load, sc.busy, sc.loads = sc.load[:n], sc.busy[:n], sc.loads[:n]
	clear(sc.load)
	clear(sc.busy)
	sc.rank, sc.head, sc.ords = sc.ix[:n:n], sc.ix[n:2*n:2*n], sc.ix[2*n:3*n:3*n]
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

// newStageSchedule builds a stage's initial units (initialUnits) on a
// copy of pool (borrowChiplet splices pools in place, and few-chip
// packages share one coordinate slice across stages), with the rows
// and the stage scratch of the build's workspace ws.
func newStageSchedule(idx int, st workloads.Stage, pool []nop.Coord, m *chiplet.MCM, cache *costmodel.Cache, ws *workspace) *StageSchedule {
	ss := &StageSchedule{Name: st.Name, Index: idx, Pool: append([]nop.Coord(nil), pool...), mcm: m, cache: cache,
		rows: &ws.rows, scratch: &ws.stages[idx]}
	units := initialUnits(idx, st)
	ss.Units = make([]*Unit, len(units))
	for i := range units {
		ss.Units[i] = &units[i]
	}
	return ss
}

// initialUnits decomposes stage idx into its initial units, in one
// block:
//
//   - Replicated stages (FE+BFPN x 8 cameras) get one whole-model unit
//     per replica.
//   - Single-model fusion stages get one unit per layer (tiny
//     non-compute layers fold into their predecessor unit).
//   - Multi-model stages (trunks) get one whole-model unit per model.
//
// Units share the pipeline's node slices read-only: a per-layer unit's
// nodes are a full slice expression of its graph's nodes, taken once
// its folded run is found, since nothing appends to a unit's nodes
// after construction; segmentation only re-slices them.
func initialUnits(idx int, st workloads.Stage) []Unit {
	switch {
	case st.Replicas > 1:
		units := make([]Unit, 0, st.Replicas*len(st.Graphs))
		for r := 1; r <= st.Replicas; r++ {
			for _, g := range st.Graphs {
				units = append(units, Unit{StageIdx: idx, Model: g.Name, Replica: r, Nodes: g.Nodes(), graph: g, Shards: 1})
			}
		}
		return units
	case len(st.Graphs) == 1:
		g := st.Graphs[0]
		nodes := g.Nodes()
		n := 0
		for i, nd := range nodes {
			if i == 0 || nd.Layer.Kind.ComputeBound() {
				n++
			}
		}
		units := make([]Unit, 0, n)
		for i := 0; i < len(nodes); {
			j := i + 1
			for j < len(nodes) && !nodes[j].Layer.Kind.ComputeBound() {
				j++
			}
			units = append(units, Unit{StageIdx: idx, Model: g.Name, Nodes: nodes[i:j:j], graph: g, Shards: 1})
			i = j
		}
		return units
	}
	units := make([]Unit, 0, len(st.Graphs))
	for _, g := range st.Graphs {
		units = append(units, Unit{StageIdx: idx, Model: g.Name, Nodes: g.Nodes(), graph: g, Shards: 1})
	}
	return units
}

// refresh re-evaluates unit costs, re-places units onto the pool (LPT),
// and recomputes PipeLatMs, EnergyJ and MACs. It leaves the chain
// metrics (E2EMs, Transfers, NoP) to computeMetrics. Its result is a
// function of the units, their shard counts and the pool alone, which
// restore relies on.
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
	for _, u := range ss.Units {
		if u.Shards > int64(len(ss.Pool)) {
			u.Shards = int64(len(ss.Pool))
		}
		if err := u.evalOn(ref, ss.cache, ss.rows); err != nil {
			return err
		}
	}
	ss.place()
	// Re-evaluate heterogeneous pools against their actual chiplets.
	// The package constructors give every position of one chiplet
	// configuration one shared accelerator, so a chiplet behind the
	// reference's pointer would probe to exactly u.PerShardMs and only
	// other accelerators probe, once per run of equal pointers (a unit's
	// chiplets are in row-major order). Probes go through the unit's
	// row, which returns the reference cost on that accelerator, never
	// the worst case this loop writes back, so a unit spread over k
	// chiplets of one non-reference type is costed once per build, not
	// k times per refresh.
	for _, u := range ss.Units {
		worst, ms, cur := 0.0, u.PerShardMs, ref
		for _, c := range u.Chiplets {
			if a := ss.mcm.At(c); a != cur {
				cur, ms = a, u.PerShardMs
				if a != ref {
					pc, err := ss.rows.cost(u, a, ss.cache)
					if err != nil {
						return err
					}
					ms = pc.ms
				}
			}
			worst = maxf(worst, ms)
		}
		if worst > 0 {
			u.PerShardMs = worst
		}
	}
	ss.EnergyJ = 0
	ss.MACs = 0
	for _, u := range ss.Units {
		ss.EnergyJ += u.EnergyJ
		ss.MACs += u.MACs
	}
	addLoads(ss.scratch.load, ss.mcm, ss.Units)
	ss.PipeLatMs = drainMaxLoad(ss.scratch.load, ss.mcm, ss.Units, 0)
	return nil
}

// place assigns each unit's shards to chiplets with longest-processing-
// time-first packing: heavier units claim the least-loaded chiplets,
// ties going to the earlier pool index. Loads are tracked per pool
// index, and rank keeps the pool indices in (load, pool index) order
// for the whole call, so a unit takes rank's first n entries and
// mergeRank puts them back in O(pool), not a selection pass per shard.
// A unit's chiplets are sorted as row-major ordinals. place marks the
// chiplets it uses busy and counts the rest of the pool as idle.
func (ss *StageSchedule) place() {
	n := len(ss.Pool)
	loads, rank := ss.scratch.loads[:n], ss.scratch.rank[:n]
	for i := range loads {
		loads[i] = 0
		rank[i] = int32(i)
	}
	// Only pool chiplets are ever marked: a chiplet leaves a pool only
	// while idle (borrowChiplet).
	busy := ss.scratch.busy
	for _, c := range ss.Pool {
		busy[ss.mcm.Ord(c)] = false
	}
	ss.idle = n
	order := append(ss.scratch.order[:0], ss.Units...)
	ss.scratch.order = order
	slices.SortStableFunc(order, func(a, b *Unit) int {
		return cmp.Compare(b.PerShardMs*float64(b.Shards), a.PerShardMs*float64(a.Shards))
	})
	w := ss.mcm.GridW
	for _, u := range order {
		head := ss.scratch.head[:min(int(u.Shards), n)]
		copy(head, rank)
		ords := ss.scratch.ords[:0]
		for _, ix := range head {
			o := ss.mcm.Ord(ss.Pool[ix])
			ords = append(ords, int32(o))
			if !busy[o] {
				busy[o] = true
				ss.idle--
			}
			loads[ix] += u.PerShardMs
		}
		slices.Sort(ords)
		// The placement overwrites the unit's own backing array: nothing
		// reads a unit's previous placement after a refresh, and
		// transfers copy coordinates by value.
		coords := u.Chiplets[:0]
		for _, o := range ords {
			coords = append(coords, nop.Coord{X: int(o) % w, Y: int(o) / w})
		}
		u.Chiplets = coords
		mergeRank(rank, head, loads)
	}
}

// mergeRank restores rank's (load, pool index) order after the loads
// of its first len(head) entries, copied into head, all grew by one
// amount. Float addition is monotone, so head is still sorted by load,
// but rounding can make two of its loads equal: an insertion pass
// re-sorts those ties by index. head then merges with rank's unchanged
// tail, front to back in place: a write never passes the next unread
// tail entry.
func mergeRank(rank, head []int32, loads []float64) {
	for i := 1; i < len(head); i++ {
		for j := i; j > 0 && ranksBefore(loads, head[j], head[j-1]); j-- {
			head[j], head[j-1] = head[j-1], head[j]
		}
	}
	tail := rank[len(head):]
	k := 0
	for len(head) > 0 && len(tail) > 0 {
		if ranksBefore(loads, tail[0], head[0]) {
			rank[k], tail = tail[0], tail[1:]
		} else {
			rank[k], head = head[0], head[1:]
		}
		k++
	}
	copy(rank[k:], head) // a tail left over is already in place
}

// ranksBefore orders pool indices by (load, pool index).
func ranksBefore(loads []float64, a, b int32) bool {
	return loads[a] < loads[b] || loads[a] == loads[b] && a < b
}

// computeMetrics derives E2E and the intra-stage NoP traffic from the
// current placement and PipeLatMs, so it runs after refresh.
func (ss *StageSchedule) computeMetrics() {
	// E2E of the stage: the longest instance chain (replicas and trunk
	// models run concurrently when they own disjoint chiplets), floored
	// by the stage's busiest chiplet (instances forced onto a shared
	// chiplet serialize). A chain sums its units' per-shard latencies
	// and, between consecutive units, the slowest shard transfer (shard
	// streams move in parallel); those transfers are the stage's
	// intra-stage NoP traffic. Chains come in a total order, so the NoP
	// sums below are deterministic; chain latencies feed a max, which
	// is order-free.
	ss.E2EMs = 0
	ss.scratch.chains = byInstance(ss.scratch.chains, ss.Units)
	// The schedule keeps the transfers: count them first, so they are
	// allocated once, not grown.
	n := 0
	for chain := range chainRuns(ss.scratch.chains) {
		for k := 1; k < len(chain); k++ {
			n += fanOutLen(chain[k-1], chain[k])
		}
	}
	ss.Transfers = slices.Grow(ss.Transfers[:0], n)
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

// stageSnapshot is a stage's greedy state before a step: what refresh
// writes, and the units list applyImprovement splices. A rejected step
// is undone by restoring it instead of refreshing again, with the same
// result. refresh is a function of the units, their shard counts and
// the pool, and since the stage's last refresh its pool can only have
// lost idle chiplets (borrowChiplet): placement never picked those,
// and never Pool[0], the reference accelerator, which the heaviest
// unit always takes.
type stageSnapshot struct {
	units  []*Unit
	states []unitState // per unit of units
	coords []nop.Coord // every unit's Chiplets, concatenated

	pipeLatMs, energyJ float64
	macs               int64
	idle               int
}

// unitState is the part of a unit refresh and applyImprovement write.
type unitState struct {
	shards, macs   int64
	perShardMs, ej float64
	chiplets       int
}

// snapshot saves the stage's greedy state into sn, reusing its storage.
func (ss *StageSchedule) snapshot(sn *stageSnapshot) {
	sn.units = append(sn.units[:0], ss.Units...)
	sn.states, sn.coords = sn.states[:0], sn.coords[:0]
	for _, u := range ss.Units {
		sn.states = append(sn.states, unitState{shards: u.Shards, macs: u.MACs,
			perShardMs: u.PerShardMs, ej: u.EnergyJ, chiplets: len(u.Chiplets)})
		sn.coords = append(sn.coords, u.Chiplets...)
	}
	sn.pipeLatMs, sn.energyJ, sn.macs, sn.idle = ss.PipeLatMs, ss.EnergyJ, ss.MACs, ss.idle
}

// restore puts back the state snapshot saved, on the same pool, and
// rebuilds the pool's busy flags from the restored placement.
func (ss *StageSchedule) restore(sn *stageSnapshot) {
	ss.Units = append(ss.Units[:0], sn.units...)
	busy := ss.scratch.busy
	for _, c := range ss.Pool {
		busy[ss.mcm.Ord(c)] = false
	}
	coords := sn.coords
	for i, u := range ss.Units {
		st := sn.states[i]
		u.Shards, u.MACs, u.PerShardMs, u.EnergyJ = st.shards, st.macs, st.perShardMs, st.ej
		u.Chiplets = append(u.Chiplets[:0], coords[:st.chiplets]...)
		coords = coords[st.chiplets:]
		for _, c := range u.Chiplets {
			busy[ss.mcm.Ord(c)] = true
		}
	}
	ss.PipeLatMs, ss.EnergyJ, ss.MACs, ss.idle = sn.pipeLatMs, sn.energyJ, sn.macs, sn.idle
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
