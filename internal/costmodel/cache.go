package costmodel

import (
	"sync"
	"sync/atomic"

	"mcmnpu/internal/dnn"
)

// layerSig captures exactly the layer fields the cost model reads:
// operator class, loop nest, activation footprints, parameter count,
// vector-op count and stride. Name and stage tags are deliberately
// excluded so that replicas and derived shards ("x/shard4") of the same
// shape hit the same entry.
type layerSig struct {
	kind     dnn.Kind
	nest     dnn.LoopNest
	inElems  int64
	outElems int64
	weights  int64
	vecOps   int64
	stride   int64
}

func sigOf(l *dnn.Layer) layerSig {
	return layerSig{
		kind:     l.Kind,
		nest:     l.Nest,
		inElems:  l.InputElems(),
		outElems: l.OutputElems(),
		weights:  l.WeightElems,
		vecOps:   l.VectorOps,
		stride:   l.Stride,
	}
}

// accelSig is the accelerator configuration with the display name
// cleared: two accels that differ only in Name cost layers identically,
// so they share cache entries.
func accelSig(a *Accel) Accel {
	s := *a
	s.Name = ""
	return s
}

// cacheSegments is the lock-stripe count. 16 stripes keep the
// worst-case contention of a full worker pool hammering one cache to a
// sixteenth of a single RWMutex while the per-segment maps stay dense.
const cacheSegments = 16

// segment is one lock stripe of the dynamic cost store. Keys are the
// packed (layerID, accelID) pair — integer map operations, no struct
// hashing.
type segment struct {
	mu sync.RWMutex
	m  map[uint64]LayerCost
}

// Cache memoizes LayerOn results keyed by interned (layer signature,
// accelerator configuration) IDs. LayerOn is pure, so a hit returns the
// exact value a fresh evaluation would — bit-for-bit, which keeps
// cached and uncached sweeps deterministic relative to each other.
//
// A LayerOn lookup is two pointer-keyed sync.Map loads (layer ID,
// accel ID — layers and accels are immutable, so a pointer resolves in
// one load after first sighting), then one integer-keyed read in a
// lock-striped segment selected by an FNV mix of the IDs; a
// ShardedLayerOn lookup adds a third load for the shard derivation.
// NodeCosts serves a whole graph from two loads (accel ID, node-cost
// vector). Stats counters are purely atomic and count per-layer
// lookups only. A Cache is safe for concurrent use; the zero value is
// not useful, use NewCache. A nil *Cache is valid and simply evaluates
// uncached.
type Cache struct {
	in     *interner
	segs   [cacheSegments]segment
	hits   atomic.Uint64
	misses atomic.Uint64

	vecs     sync.Map   // vecKey -> []LayerCost (NodeCosts)
	vecMu    sync.Mutex // guards vecNodes and the clearing of vecs
	vecNodes int        // node entries stored in vecs, under vecMu
}

// vecKey names one node-cost vector: a graph at its current length
// (graphs only grow, through Add, so a longer graph gets a new vector)
// on an interned accelerator configuration.
type vecKey struct {
	g     *dnn.Graph
	nodes int
	accel uint32
}

// maxNodeCosts bounds the node entries NodeCosts keeps, over every
// vector. The vectors pin their graphs, and a long-lived cache sees
// fresh graphs on every request, so once storing a vector would pass
// the bound, every vector is dropped: later calls rebuild them from
// the per-layer entries, which changes no value. The benchmark's
// evolve-hetero op (seed 1) keeps 1,448 node entries in 64 vectors.
const maxNodeCosts = 1 << 14

// NewCache returns an empty layer-cost cache.
func NewCache() *Cache {
	c := &Cache{in: newInterner()}
	for i := range c.segs {
		c.segs[i].m = make(map[uint64]LayerCost)
	}
	return c
}

// segOf picks the lock stripe for a packed key: FNV-1a over the key
// bytes, folded to the stripe count. Cheap (eight multiply-xor steps)
// and well-mixed even though layer and accel IDs are small sequential
// integers.
func segOf(key uint64) uint32 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= key & 0xff
		h *= prime64
		key >>= 8
	}
	return uint32(h) % cacheSegments
}

func packKey(layerID, accelID uint32) uint64 {
	return uint64(layerID)<<32 | uint64(accelID)
}

// CacheStats reports cache effectiveness counters.
type CacheStats struct {
	Hits    uint64
	Misses  uint64
	Entries int
}

// Stats returns the cache's hit/miss counters and entry count.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	n := 0
	for i := range c.segs {
		s := &c.segs[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}

// LayerOn is the memoized counterpart of the package-level LayerOn.
// The returned cost's Layer field always points at l (cache entries are
// stored ID-keyed, not pointer-keyed).
//
//perf:hot — the memoized lookup every costing call funnels through
func (c *Cache) LayerOn(l *dnn.Layer, a *Accel) LayerCost {
	if c == nil {
		return LayerOn(l, a)
	}
	return c.cost(c.in.layerID(l), c.in.accelID(a), l, a)
}

// cost is the striped-store lookup shared by the plain and sharded hot
// paths: l and a are only consulted to compute a missing entry (and to
// stamp the returned Layer back-pointer).
func (c *Cache) cost(lid, aid uint32, l *dnn.Layer, a *Accel) LayerCost {
	key := packKey(lid, aid)
	seg := &c.segs[segOf(key)]
	seg.mu.RLock()
	v, ok := seg.m[key]
	seg.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		v.Layer = l
		return v
	}
	c.misses.Add(1)
	v = LayerOn(l, a)
	v.Layer = nil // normalize: the entry is shared across equivalent layers
	seg.mu.Lock()
	seg.m[key] = v
	seg.mu.Unlock()
	v.Layer = l
	return v
}

// ShardedLayerOn is the memoized counterpart of the package-level
// ShardedLayerOn. The shard derivation itself is interned per (layer
// signature, n) — the returned cost's Layer field points at that
// canonical shard instance — so every candidate that shards a layer
// the same way shares one derivation and one evaluation.
//
//perf:hot — the sharded costing lookup on the scheduler's inner loop
func (c *Cache) ShardedLayerOn(l *dnn.Layer, n int64, a *Accel) (LayerCost, error) {
	if c == nil {
		return ShardedLayerOn(l, n, a)
	}
	e, err := c.in.shardOf(l, n)
	if err != nil {
		return LayerCost{}, err
	}
	return c.cost(e.id, c.in.accelID(a), e.layer, a), nil
}

// NodeCosts returns the LayerOn cost of every node of g on a, indexed
// by Node.ID, with Layer cleared. The vector is filled through LayerOn,
// so the per-layer entries stay the only source of values, and it is
// stored once per (graph, accelerator configuration): equal
// accelerators behind distinct pointers share it. The slice is shared
// between callers, who must not modify it. A nil *Cache builds a fresh
// vector uncached.
//
//perf:hot — the scheduler costs unsharded units from these vectors
func (c *Cache) NodeCosts(g *dnn.Graph, a *Accel) []LayerCost {
	if c == nil {
		return nodeCosts(nil, g, a)
	}
	k := vecKey{g: g, nodes: g.Len(), accel: c.in.accelID(a)}
	if v, ok := c.vecs.Load(k); ok {
		return v.([]LayerCost)
	}
	vec := nodeCosts(c, g, a)
	c.vecMu.Lock()
	defer c.vecMu.Unlock()
	if c.vecNodes+len(vec) > maxNodeCosts {
		c.vecs.Clear()
		c.vecNodes = 0
	}
	v, loaded := c.vecs.LoadOrStore(k, vec)
	if !loaded {
		c.vecNodes += len(vec)
	}
	return v.([]LayerCost)
}

// nodeCosts builds g's node-cost vector on a through c (nil evaluates
// uncached).
func nodeCosts(c *Cache, g *dnn.Graph, a *Accel) []LayerCost {
	vec := make([]LayerCost, g.Len())
	for _, n := range g.Nodes() {
		vec[n.ID] = c.LayerOn(n.Layer, a)
		vec[n.ID].Layer = nil
	}
	return vec
}

// GraphOn is the memoized counterpart of the package-level GraphOn: the
// graph's node-cost vector with each entry's Layer pointing at its
// node's layer.
func (c *Cache) GraphOn(g *dnn.Graph, a *Accel) GraphCost {
	vec := c.NodeCosts(g, a)
	gc := GraphCost{Accel: a, PerLayer: make([]LayerCost, 0, g.Len())}
	for _, n := range g.Nodes() {
		lc := vec[n.ID]
		lc.Layer = n.Layer
		gc.add(lc)
	}
	return gc
}

// AccelEquivalent reports whether two accelerators have identical
// cost-relevant configurations (everything but the display name).
// chiplet.New groups a package's chiplets into classes with it, so the
// scheduler skips probe re-evaluations on homogeneous pools whose
// chiplets are distinct objects with equal values.
func AccelEquivalent(a, b *Accel) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	return accelSig(a) == accelSig(b)
}
