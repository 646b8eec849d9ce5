package costmodel

import (
	"reflect"
	"sync"
	"testing"

	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/dnn"
	"mcmnpu/internal/tensor"
)

func cacheTestLayers() []*dnn.Layer {
	return []*dnn.Layer{
		dnn.NewBatchedLinear("qkv", 8, 16000, 256, 768),
		dnn.NewMatMul("attn", 8, 16000, 256, 96),
		dnn.NewConv2D(dnn.Conv2DSpec{Name: "conv", In: tensor.NCHW(1, 256, 20, 80),
			OutC: 256, Kernel: 3, Stride: 1, Pad: 1}),
		dnn.NewSoftmax("sm", 8, 16000, 96),
		dnn.NewPool("pool", tensor.NCHW(1, 64, 80, 160), 2, 2),
	}
}

func TestCacheMatchesUncached(t *testing.T) {
	c := NewCache()
	for _, a := range []*Accel{SimbaChiplet(dataflow.OS), SimbaChiplet(dataflow.WS)} {
		for _, l := range cacheTestLayers() {
			want := LayerOn(l, a)
			// First call misses, second hits; both must equal the direct
			// evaluation exactly, including the Layer back-pointer.
			for pass := 0; pass < 2; pass++ {
				got := c.LayerOn(l, a)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s on %s pass %d: cached %+v != direct %+v",
						l.Name, a.Name, pass, got, want)
				}
				if got.Layer != l {
					t.Errorf("%s pass %d: cached cost points at %v, want the queried layer",
						l.Name, pass, got.Layer)
				}
			}
		}
	}
	s := c.Stats()
	if s.Misses != 10 || s.Hits != 10 || s.Entries != 10 {
		t.Errorf("stats = %+v, want 10 misses / 10 hits / 10 entries", s)
	}
}

func TestCacheSharesEntriesAcrossEquivalentLayers(t *testing.T) {
	c := NewCache()
	a := SimbaChiplet(dataflow.OS)
	l := dnn.NewBatchedLinear("ffn", 12, 16000, 300, 1200)
	c.LayerOn(l, a)
	// Same shape under a different name (a replica) must hit.
	replica := *l
	replica.Name = "ffn[2]"
	c.LayerOn(&replica, a)
	// Same accel config under a different display name must hit too.
	renamed := *a
	renamed.Name = "other"
	c.LayerOn(l, &renamed)
	if s := c.Stats(); s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss", s)
	}
}

func TestCacheDistinguishesConfigs(t *testing.T) {
	c := NewCache()
	l := dnn.NewLinear("l", 1000, 256, 256)
	osC := c.LayerOn(l, SimbaChiplet(dataflow.OS))
	wsC := c.LayerOn(l, SimbaChiplet(dataflow.WS))
	if osC.LatencyMs == wsC.LatencyMs && osC.EnergyJ == wsC.EnergyJ {
		t.Error("OS and WS must not collide in the cache")
	}
	shard, err := l.Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	if c.LayerOn(shard, SimbaChiplet(dataflow.OS)).LatencyMs == osC.LatencyMs {
		t.Error("a 2-way shard must not collide with the full layer")
	}
	if s := c.Stats(); s.Misses != 3 {
		t.Errorf("stats = %+v, want 3 distinct entries", s)
	}
}

func TestCacheNilSafe(t *testing.T) {
	var c *Cache
	l := dnn.NewLinear("l", 1000, 256, 256)
	a := SimbaChiplet(dataflow.OS)
	if !reflect.DeepEqual(c.LayerOn(l, a), LayerOn(l, a)) {
		t.Error("nil cache must fall through to the direct evaluation")
	}
	if _, err := c.ShardedLayerOn(l, 2, a); err != nil {
		t.Errorf("nil cache ShardedLayerOn: %v", err)
	}
	if s := c.Stats(); s != (CacheStats{}) {
		t.Errorf("nil cache stats = %+v", s)
	}
}

func TestCacheShardedAndAggregates(t *testing.T) {
	c := NewCache()
	a := SimbaChiplet(dataflow.OS)
	l := dnn.NewBatchedLinear("ffn", 12, 16000, 300, 1200)
	want, err := ShardedLayerOn(l, 6, a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ShardedLayerOn(l, 6, a)
	if err != nil {
		t.Fatal(err)
	}
	if got.LatencyMs != want.LatencyMs || got.EnergyJ != want.EnergyJ {
		t.Errorf("cached shard %+v != direct %+v", got, want)
	}

	g := dnn.NewGraph("g")
	n := g.Add(dnn.NewLinear("a", 1000, 256, 256))
	g.Add(dnn.NewLinear("b", 1000, 256, 256), n)
	if c.GraphOn(g, a).EnergyJ != GraphOn(g, a).EnergyJ {
		t.Error("cached GraphOn disagrees with direct")
	}
}

// TestCacheShardedConcurrentHammer drives the full interned hot path —
// pointer interning, shard derivation memoization, and the lock-striped
// segments — from 32 goroutines at once, mixing plain and sharded
// lookups across layers, shard counts and accel configurations. Every
// returned value must equal a direct evaluation; run under -race (make
// race does) this is the cache's data-race certificate.
func TestCacheShardedConcurrentHammer(t *testing.T) {
	c := NewCache()
	layers := cacheTestLayers()
	accels := []*Accel{
		SimbaChiplet(dataflow.OS),
		SimbaChiplet(dataflow.WS),
		Monolithic("mono", 2304, dataflow.OS),
	}
	shardCounts := []int64{1, 2, 3, 4}

	// Direct references, computed once outside the hammer.
	type refKey struct {
		li, ai int
		n      int64
	}
	want := map[refKey]LayerCost{}
	for li, l := range layers {
		for ai, a := range accels {
			want[refKey{li, ai, 0}] = LayerOn(l, a)
			for _, n := range shardCounts {
				if s, err := l.Shard(n); err == nil {
					want[refKey{li, ai, n}] = LayerOn(s, a)
				}
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				li := (i + w) % len(layers)
				ai := (i + w/3) % len(accels)
				l, a := layers[li], accels[ai]
				if w%2 == 0 {
					got := c.LayerOn(l, a)
					ref := want[refKey{li, ai, 0}]
					if got.LatencyMs != ref.LatencyMs || got.EnergyJ != ref.EnergyJ {
						t.Errorf("worker %d: LayerOn(%s, %s) diverged", w, l.Name, a.Name)
						return
					}
					continue
				}
				n := shardCounts[(i+w)%len(shardCounts)]
				ref, feasible := want[refKey{li, ai, n}]
				got, err := c.ShardedLayerOn(l, n, a)
				if err != nil {
					if feasible {
						t.Errorf("worker %d: ShardedLayerOn(%s, %d): %v", w, l.Name, n, err)
					}
					continue
				}
				if got.LatencyMs != ref.LatencyMs || got.EnergyJ != ref.EnergyJ {
					t.Errorf("worker %d: ShardedLayerOn(%s, %d, %s) diverged", w, l.Name, n, a.Name)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	s := c.Stats()
	if s.Entries == 0 || s.Hits == 0 {
		t.Errorf("hammer left no cache footprint: %+v", s)
	}
	if s.Entries > len(want) {
		t.Errorf("entries = %d, want at most %d distinct (layer/shard, accel) pairs", s.Entries, len(want))
	}
}

// TestCacheConcurrentMissCountsOnce: goroutines that miss one fresh key
// at the same moment may each evaluate it, but only the one that stores
// the entry counts a miss; the others count the hits a serial run would.
func TestCacheConcurrentMissCountsOnce(t *testing.T) {
	c := NewCache()
	l, a := cacheTestLayers()[0], SimbaChiplet(dataflow.OS)
	want := LayerOn(l, a)
	const callers = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if got := c.LayerOn(l, a); !reflect.DeepEqual(got, want) {
				t.Errorf("LayerOn = %+v, want %+v", got, want)
			}
		}()
	}
	close(start)
	wg.Wait()
	if s := c.Stats(); s.Misses != 1 || s.Entries != 1 || s.Hits != callers-1 {
		t.Errorf("stats = %+v, want 1 miss, 1 entry and %d hits", s, callers-1)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache()
	layers := cacheTestLayers()
	accels := []*Accel{SimbaChiplet(dataflow.OS), SimbaChiplet(dataflow.WS)}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, a := range accels {
					for _, l := range layers {
						want := LayerOn(l, a)
						got := c.LayerOn(l, a)
						if got.LatencyMs != want.LatencyMs {
							t.Errorf("concurrent mismatch on %s", l.Name)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if s := c.Stats(); s.Entries != len(layers)*len(accels) {
		t.Errorf("entries = %d, want %d", s.Entries, len(layers)*len(accels))
	}
}
