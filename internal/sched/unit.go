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
	"cmp"
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
// within one Build those repeats hit the build's unit-cost memo, and a
// memo miss reads the shared cache (nil is valid and evaluates
// uncached), which serves first sightings and reuse across builds.
func (u *Unit) evalOn(a *costmodel.Accel, cache *costmodel.Cache, memo unitCosts) error {
	c, err := memo.cost(u, a, cache)
	if err != nil {
		return err
	}
	u.PerShardMs, u.EnergyJ, u.MACs = c.ms, c.ej, c.macs
	return nil
}

// unitCostKey names one costing of a unit: its node run, shard count
// and accelerator. Units only ever re-slice one model's node list
// (newStageSchedule, segment), so the first node and the run length name
// the layers; camera replicas share one node list and so share entries.
type unitCostKey struct {
	first  *dnn.Node
	nodes  int
	shards int64
	accel  *costmodel.Accel
}

// unitCost is a unit's reference cost: per-shard latency, total energy
// and total MACs, summed in node order.
type unitCost struct {
	ms, ej float64
	macs   int64
}

// unitCosts is the unit-cost memo of one Build: a plain map,
// never shared across goroutines and dropped before Build returns.
// Cost is a pure function of layer, shard and accelerator values, so a
// hit on the same accelerator pointer is exact; an equal configuration
// behind another pointer misses into the shared cache, where it shares
// the node-cost vectors and sharded entries of its configuration. A nil
// memo evaluates every call through the cache.
type unitCosts map[unitCostKey]unitCost

// cost returns u's reference cost on a at its current shard count. It
// never reads u's derived fields: refresh overwrites u.PerShardMs with
// the heterogeneous worst case after placement.
//
// An unsharded unit (every multi-node unit, and a single node before
// it shards) sums its nodes' entries of the graph's node-cost vector
// on a. Only a sharded unit, always a single node, looks up its shard
// derivation. Both give the value a per-node ShardedLayerOn sum gives:
// a 1-way shard is a copy with its layer's signature, and scaling
// energy by 1 is exact.
func (m unitCosts) cost(u *Unit, a *costmodel.Accel, cache *costmodel.Cache) (unitCost, error) {
	k := unitCostKey{first: u.Nodes[0], nodes: len(u.Nodes), shards: u.Shards, accel: a}
	if c, ok := m[k]; ok {
		return c, nil
	}
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
	if m != nil {
		m[k] = c
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
// memo, like any other unit.
func (u *Unit) segment(a *costmodel.Accel, cache *costmodel.Cache, memo unitCosts) (*Unit, *Unit, error) {
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
	if err := first.evalOn(a, cache, memo); err != nil {
		return nil, nil, err
	}
	if err := second.evalOn(a, cache, memo); err != nil {
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
	last := u.Nodes[len(u.Nodes)-1].Layer
	bytes := last.OutputElems()
	if bytes <= 0 || len(u.Chiplets) == 0 || len(v.Chiplets) == 0 {
		return dst
	}
	per := bytes / int64(len(u.Chiplets))
	for i, src := range u.Chiplets {
		dst = append(dst, nop.Transfer{Src: src, Dst: v.Chiplets[i%len(v.Chiplets)], Bytes: per, Label: last.Name})
	}
	return dst
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

// sortCoords orders coordinates by row-major ordinal on a mesh w
// chiplets wide. Placement coordinates are unique, so sort stability
// does not matter.
func sortCoords(cs []nop.Coord, w int) {
	slices.SortFunc(cs, func(a, b nop.Coord) int {
		return cmp.Compare(a.Y*w+a.X, b.Y*w+b.X)
	})
}
