// Package sched implements the paper's core contribution: the nested
// greedy throughput-matching scheduler (Algorithm 1) that maps the
// four-stage perception pipeline onto a multi-chiplet NPU.
//
// The scheduler works on Units — contiguous runs of layers from one
// model instance. A unit can be data-parallel sharded across several
// chiplets (weights replicated, rows/batch split) or, when it spans
// multiple layers, split into pipeline segments. The outer greedy loop
// matches every stage's pipelining latency to the base stage (FE+BFPN);
// the inner loop shards the bottleneck unit of the bottleneck stage.
// Surplus (idle) chiplets migrate from over-provisioned stages to
// bottleneck stages, reproducing the paper's Figures 5-8 mappings and
// the Fig 10 dual-NPU progression.
package sched

import (
	"fmt"
	"slices"

	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dnn"
	"mcmnpu/internal/nop"
)

// Unit is one schedulable piece of work: a contiguous (in topological
// order) run of layers from one model instance.
type Unit struct {
	StageIdx int
	Model    string
	Replica  int
	Nodes    []*dnn.Node

	// graph is the model graph Nodes belong to: every node n of the
	// unit is graph.Nodes()[n.ID], so the graph's node-cost vectors
	// cost the unit by index.
	graph *dnn.Graph
	// row holds the build's costings of the unit's node run, from the
	// unit's first costing until release clears it.
	row *costRow

	// Shards is the data-parallel split factor (only meaningful for
	// single-node units; multi-node units split into segments instead).
	Shards int64

	// Chiplets holds the mesh positions of every shard (len == Shards).
	Chiplets []nop.Coord

	// Derived costs (per shard; all shards run concurrently).
	PerShardMs float64
	EnergyJ    float64 // total across shards
	MACs       int64   // total across shards
}

// Label returns a stable display name for the unit.
func (u *Unit) Label() string {
	name := u.Nodes[0].Layer.Name
	if len(u.Nodes) > 1 {
		name = fmt.Sprintf("%s..%s", u.Nodes[0].Layer.Name, u.Nodes[len(u.Nodes)-1].Layer.Name)
	}
	if u.Replica > 0 {
		return fmt.Sprintf("%s[%d]", name, u.Replica)
	}
	return name
}

// evalOn sets the unit's per-shard latency, total energy and MACs to
// its cost on the given accelerator. For multi-node units the nodes run
// serially on one chiplet; for sharded single-node units each shard
// holds a 1/Shards slice with weights replicated. Algorithm 1 re-costs
// the same (unit, shard count, accelerator) on every greedy iteration:
// within one Build those repeats hit the build's unit-cost rows, and a
// miss reads the shared cache (nil is valid and evaluates uncached),
// which serves first sightings and reuse across builds.
func (u *Unit) evalOn(a *costmodel.Accel, cache *costmodel.Cache, rows *unitRows) error {
	c, err := rows.cost(u, a, cache)
	if err != nil {
		return err
	}
	u.PerShardMs, u.EnergyJ, u.MACs = c.ms, c.ej, c.macs
	return nil
}

// unitCost is a unit's reference cost: per-shard latency, total energy
// and total MACs, summed in node order.
type unitCost struct {
	ms, ej float64
	macs   int64
}

// accelCost is one costing in a row: the row's units' cost on a.
type accelCost struct {
	a *costmodel.Accel
	c unitCost
}

// costRow holds one build's costings of a node run. Units only ever
// re-slice one model's node list (newStageSchedule, segment), so the
// run's first node and length name its layers, and camera replicas,
// which share one node list, share a row. byShards[k-1] lists the
// run's costings at k shards, one per accelerator pointer costed so
// far: the package constructors give every chiplet configuration one
// accelerator, so a list holds at most one entry per configuration.
// Cost is a pure function of layer, shard count and accelerator
// values, so an entry is exact for the pointer it names; an equal
// configuration behind another pointer misses into the shared cache,
// where it shares the node-cost vectors and sharded entries of its
// configuration.
type costRow struct {
	nodes    int
	next     int32 // 1 + the index of the next row starting at the same node; 0 ends the chain
	byShards [][]accelCost
}

// at returns the row's costings at k shards. A list past the row's
// length reuses the storage an earlier build left there, emptied.
func (r *costRow) at(k int64) *[]accelCost {
	for n := len(r.byShards); int64(n) < k; n++ {
		r.byShards = slices.Grow(r.byShards, 1)[:n+1]
		r.byShards[n] = r.byShards[n][:0]
	}
	return &r.byShards[k-1]
}

// unitRows is the unit-cost store of one build: its rows, and an index
// from a node run to its row. Every unit keeps a pointer to its row
// from its first costing on (Unit.row), so only that first costing
// looks the run up: in the chain of rows that start at its first node,
// found through the node's ID in its graph's span of heads. It belongs
// to the build's workspace, never shared across goroutines, and
// release clears the units' pointers into it.
type unitRows struct {
	rows   []*costRow // the build's rows are rows[:n]; the rest wait for reuse
	n      int
	graphs []*dnn.Graph // the graphs whose nodes heads covers
	offs   []int        // offs[i]: where graphs[i]'s span starts in heads
	heads  []int32      // per node: 1 + the index of the newest row starting there, 0 for none
}

// reset empties the store, keeping its storage.
func (r *unitRows) reset() {
	r.n = 0
	r.graphs, r.offs, r.heads = r.graphs[:0], r.offs[:0], r.heads[:0]
}

// rowOf returns the row of u's node run, adding an empty one on the
// run's first sighting in the build.
func (r *unitRows) rowOf(u *Unit) *costRow {
	gi := slices.Index(r.graphs, u.graph)
	if gi < 0 {
		gi = len(r.graphs)
		n := len(r.heads)
		r.graphs = append(r.graphs, u.graph)
		r.offs = append(r.offs, n)
		r.heads = slices.Grow(r.heads, u.graph.Len())[:n+u.graph.Len()]
		clear(r.heads[n:])
	}
	head := &r.heads[r.offs[gi]+u.Nodes[0].ID]
	for i := *head; i != 0; i = r.rows[i-1].next {
		if row := r.rows[i-1]; row.nodes == len(u.Nodes) {
			return row
		}
	}
	if r.n == len(r.rows) {
		block := make([]costRow, max(len(r.rows), 32))
		for i := range block {
			r.rows = append(r.rows, &block[i])
		}
	}
	row := r.rows[r.n]
	r.n++
	row.nodes, row.next, row.byShards = len(u.Nodes), *head, row.byShards[:0]
	*head = int32(r.n)
	return row
}

// cost returns u's reference cost on a at its current shard count. It
// never reads u's derived fields: refresh overwrites u.PerShardMs with
// the heterogeneous worst case after placement.
func (r *unitRows) cost(u *Unit, a *costmodel.Accel, cache *costmodel.Cache) (unitCost, error) {
	if u.row == nil {
		u.row = r.rowOf(u)
	}
	list := u.row.at(u.Shards)
	for _, e := range *list {
		if e.a == a {
			return e.c, nil
		}
	}
	c, err := u.costOn(a, cache)
	if err != nil {
		return unitCost{}, err
	}
	*list = append(*list, accelCost{a: a, c: c})
	return c, nil
}

// costOn evaluates u's reference cost on a at its current shard count
// through the shared cache. An unsharded unit (every multi-node unit,
// and a single node before it shards) sums its nodes' entries of the
// graph's node-cost vector on a. Only a sharded unit, always a single
// node, looks up its shard derivation. Both give the value a per-node
// ShardedLayerOn sum gives: a 1-way shard is a copy with its layer's
// signature, and scaling energy by 1 is exact.
func (u *Unit) costOn(a *costmodel.Accel, cache *costmodel.Cache) (unitCost, error) {
	var vec []costmodel.LayerCost
	if u.Shards == 1 {
		vec = cache.NodeCosts(u.graph, a)
	}
	var c unitCost
	for _, n := range u.Nodes {
		var lc costmodel.LayerCost
		if vec != nil {
			lc = vec[n.ID]
		} else {
			var err error
			if lc, err = cache.ShardedLayerOn(n.Layer, u.Shards, a); err != nil {
				return unitCost{}, fmt.Errorf("sched: unit %s: %w", u.Label(), err)
			}
		}
		c.ms += lc.LatencyMs
		c.ej += lc.EnergyJ * float64(u.Shards)
		c.macs += n.Layer.MACs()
	}
	return c, nil
}

// maxShards returns the largest useful shard factor for the unit.
func (u *Unit) maxShards() int64 {
	if len(u.Nodes) != 1 {
		return 1 // multi-node units segment instead of sharding
	}
	return u.Nodes[0].Layer.MaxShard()
}

// nextShards returns the next efficient shard count above the current
// one: the next divisor of the batch extent for batch-sharded layers
// (splitting 12 frames 5-ways wastes the ceiling share), otherwise
// +1 for row-sharded layers. Returns current if exhausted.
func (u *Unit) nextShards(poolSize int) int64 {
	if len(u.Nodes) != 1 {
		return u.Shards
	}
	l := u.Nodes[0].Layer
	max := u.maxShards()
	if int64(poolSize) < max {
		max = int64(poolSize)
	}
	if u.Shards >= max {
		return u.Shards
	}
	if l.ShardDim == "batch" && l.Nest.Batch > 1 {
		b := l.Nest.Batch
		for n := u.Shards + 1; n <= max; n++ {
			if b%n == 0 {
				return n
			}
		}
		return u.Shards
	}
	return u.Shards + 1
}

// canSegment reports whether the unit spans multiple layers and can be
// split into pipeline segments.
func (u *Unit) canSegment() bool { return len(u.Nodes) > 1 }

// segment splits the unit into two pipeline segments at the balanced
// cumulative-latency point (the paper splits FE+BFPN at the fourth
// ResNet block this way in the dual-NPU study). The per-layer split
// latencies come from the graph's node-cost vector on a (a nil cache
// builds it uncached); the two halves are costed on a through the
// build's rows, like any other unit.
func (u *Unit) segment(a *costmodel.Accel, cache *costmodel.Cache, rows *unitRows) (*Unit, *Unit, error) {
	if !u.canSegment() {
		return nil, nil, fmt.Errorf("sched: unit %s cannot segment", u.Label())
	}
	vec := cache.NodeCosts(u.graph, a)
	var total float64
	for _, n := range u.Nodes {
		total += vec[n.ID].LatencyMs
	}
	var acc float64
	cut := 1
	bestDiff := total
	for i, n := range u.Nodes[:len(u.Nodes)-1] {
		acc += vec[n.ID].LatencyMs
		diff := abs64(acc - (total - acc))
		if diff < bestDiff {
			bestDiff = diff
			cut = i + 1
		}
	}
	first := &Unit{StageIdx: u.StageIdx, Model: u.Model, Replica: u.Replica,
		Nodes: u.Nodes[:cut], graph: u.graph, Shards: 1}
	second := &Unit{StageIdx: u.StageIdx, Model: u.Model, Replica: u.Replica,
		Nodes: u.Nodes[cut:], graph: u.graph, Shards: 1}
	if err := first.evalOn(a, cache, rows); err != nil {
		return nil, nil, err
	}
	if err := second.evalOn(a, cache, rows); err != nil {
		return nil, nil, err
	}
	return first, second, nil
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// AppendFanOut appends to dst the NoP transfers that carry u's output
// (the int8 activations of its terminal node) to v, and returns the
// extended slice. The output splits evenly over u's chiplets, and shard
// i goes to v's chiplet i mod len(v.Chiplets). Nothing is appended
// when u emits nothing or either unit is unplaced.
func AppendFanOut(dst []nop.Transfer, u, v *Unit) []nop.Transfer {
	for i := range fanOutLen(u, v) {
		dst = append(dst, fanOut(u, v, i))
	}
	return dst
}

// fanOutLen returns the number of transfers that carry u's output to
// v: one per chiplet of u, none when u emits nothing or either unit is
// unplaced.
func fanOutLen(u, v *Unit) int {
	if u.Nodes[len(u.Nodes)-1].Layer.OutputElems() <= 0 || len(v.Chiplets) == 0 {
		return 0
	}
	return len(u.Chiplets)
}

// fanOut returns the transfer of u's shard i to v: an even share of u's
// output, to v's chiplet i mod len(v.Chiplets).
func fanOut(u, v *Unit, i int) nop.Transfer {
	last := u.Nodes[len(u.Nodes)-1].Layer
	return nop.Transfer{Src: u.Chiplets[i], Dst: v.Chiplets[i%len(v.Chiplets)],
		Bytes: last.OutputElems() / int64(len(u.Chiplets)), Label: last.Name}
}

// slowest returns the largest latency of the transfers under p, 0 for
// none: a unit's shard streams move in parallel, so the slowest one is
// what its consumer waits for.
func slowest(p nop.Params, ts []nop.Transfer) float64 {
	var worst float64
	for _, t := range ts {
		worst = maxf(worst, p.Eval(t).LatencyMs)
	}
	return worst
}
