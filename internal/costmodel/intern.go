// Interning layer: layer and accelerator signatures are canonicalized
// into dense integer IDs so the memoization hot path works on integer
// keys instead of hashing ~130-byte structs per lookup. Pointer-keyed
// fast paths (layers and accels are immutable after construction, so a
// pointer identifies its signature forever) make the steady-state cost
// of resolving an ID one sync.Map load; the signature maps behind them
// only run on the first sighting of a new object.
package costmodel

import (
	"sync"

	"mcmnpu/internal/dnn"
)

// interner canonicalizes layer signatures, accelerator signatures and
// shard derivations into dense IDs. Safe for concurrent use.
//
// The pointer-keyed fast-path maps keep every layer/accel object they
// have seen reachable, and a long-lived cache (cmd/serve keeps one
// engine per process) can keep seeing fresh objects: each monolithic
// baseline package builds its own accelerator, and a workload
// configuration past scenario's compile memo compiles fresh graphs.
// Once they hold maxInternedPtrs entries, both are cleared: later
// lookups fall back to the signature maps, which keep every ID stable,
// so clearing changes no result. Signatures, shard derivations and
// cost entries grow only with distinct shapes.
type interner struct {
	layerPtrs sync.Map // *dnn.Layer -> uint32
	accelPtrs sync.Map // *Accel -> uint32
	shards    sync.Map // shardKey -> *shardEntry

	mu        sync.Mutex
	layerSigs map[layerSig]uint32
	accelSigs map[Accel]uint32
	ptrs      int // entries stored in layerPtrs and accelPtrs, under mu
}

// maxInternedPtrs bounds the pointer fast-path maps together. One
// evolve op interns about 440 pointers, so the bound only trips on a
// cache that outlives many requests.
const maxInternedPtrs = 1 << 14

// shardKey identifies an n-way shard derivation of an interned layer.
type shardKey struct {
	layer uint32
	n     int64
}

// shardEntry is a canonical shard instance with its layer ID resolved
// at intern time, so the sharded hot path skips one pointer lookup.
type shardEntry struct {
	layer *dnn.Layer
	id    uint32
}

func newInterner() *interner {
	return &interner{
		layerSigs: make(map[layerSig]uint32),
		accelSigs: make(map[Accel]uint32),
	}
}

// layerID resolves the dense ID of l's signature. Replicas and renamed
// copies of the same shape resolve to one ID (the signature excludes
// the display name), so they share cost entries exactly as the
// signature-keyed map did.
func (in *interner) layerID(l *dnn.Layer) uint32 {
	if v, ok := in.layerPtrs.Load(l); ok {
		return v.(uint32)
	}
	sig := sigOf(l)
	in.mu.Lock()
	defer in.mu.Unlock()
	id, ok := in.layerSigs[sig]
	if !ok {
		id = uint32(len(in.layerSigs))
		in.layerSigs[sig] = id
	}
	in.storePtr(&in.layerPtrs, l, id)
	return id
}

// accelID resolves the dense ID of a's configuration (display name
// cleared, as accelSig does).
func (in *interner) accelID(a *Accel) uint32 {
	if v, ok := in.accelPtrs.Load(a); ok {
		return v.(uint32)
	}
	sig := accelSig(a)
	in.mu.Lock()
	defer in.mu.Unlock()
	id, ok := in.accelSigs[sig]
	if !ok {
		id = uint32(len(in.accelSigs))
		in.accelSigs[sig] = id
	}
	in.storePtr(&in.accelPtrs, a, id)
	return id
}

// storePtr records ptr's ID in m, first clearing both pointer maps
// once they hold maxInternedPtrs entries. Callers hold in.mu.
func (in *interner) storePtr(m *sync.Map, ptr any, id uint32) {
	if in.ptrs >= maxInternedPtrs {
		in.layerPtrs.Clear()
		in.accelPtrs.Clear()
		in.ptrs = 0
	}
	m.Store(ptr, id)
	in.ptrs++
}

// shardOf returns the canonical n-way shard instance of l (with its
// interned ID), deriving it once per (layer signature, n). Shard
// derivation allocates (a copy plus a formatted name), so Algorithm
// 1's greedy loop — which re-evaluates the same (layer, shard count)
// pairs every iteration — must not repeat it. Derivation errors are
// not memoized: they carry the caller's layer name and are outside
// every hot path.
func (in *interner) shardOf(l *dnn.Layer, n int64) (*shardEntry, error) {
	k := shardKey{layer: in.layerID(l), n: n}
	if v, ok := in.shards.Load(k); ok {
		return v.(*shardEntry), nil
	}
	s, err := l.Shard(n)
	if err != nil {
		return nil, err
	}
	e := &shardEntry{layer: s, id: in.layerID(s)}
	if v, loaded := in.shards.LoadOrStore(k, e); loaded {
		return v.(*shardEntry), nil
	}
	return e, nil
}

// Table is a precomputed, index-addressed cost table: Cost(i, j) is one
// array read for the i-th layer on the j-th accelerator, with no
// hashing or locking. Build one at space-construction time for the
// (layer, accel) pairs a search enumerates — the dynamic Cache then
// only serves keys discovered later (shard counts, borrowed pools).
type Table struct {
	accels int
	costs  []LayerCost // layer-major: costs[i*accels+j]
}

// NewTable precomputes every (layer, accel) cost through the cache (nil
// evaluates uncached; either way each pair is evaluated at most once
// per cache). The entries are bit-for-bit the values LayerOn returns,
// with Layer pointing at the indexed layer.
func (c *Cache) NewTable(layers []*dnn.Layer, accels []*Accel) *Table {
	t := &Table{accels: len(accels), costs: make([]LayerCost, len(layers)*len(accels))}
	for i, l := range layers {
		for j, a := range accels {
			t.costs[i*len(accels)+j] = c.LayerOn(l, a)
		}
	}
	return t
}

// Cost returns the precomputed cost of layer i on accelerator j.
func (t *Table) Cost(i, j int) LayerCost { return t.costs[i*t.accels+j] }
