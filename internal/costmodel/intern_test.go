package costmodel

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/dnn"
)

// TestTableMatchesCacheAndDirect: the index-addressed table returns the
// same values whether built over a live cache or a nil (uncached) one,
// and both equal direct LayerOn evaluations — including the Layer
// back-pointer pointing at the indexed layer.
func TestTableMatchesCacheAndDirect(t *testing.T) {
	layers := cacheTestLayers()
	accels := []*Accel{SimbaChiplet(dataflow.OS), SimbaChiplet(dataflow.WS)}

	cached := NewCache().NewTable(layers, accels)
	uncached := (*Cache)(nil).NewTable(layers, accels)

	for i, l := range layers {
		for j, a := range accels {
			want := LayerOn(l, a)
			if got := cached.Cost(i, j); !reflect.DeepEqual(got, want) {
				t.Errorf("cached table[%d][%d]: %+v != direct %+v", i, j, got, want)
			}
			if got := uncached.Cost(i, j); !reflect.DeepEqual(got, want) {
				t.Errorf("uncached table[%d][%d]: %+v != direct %+v", i, j, got, want)
			}
		}
	}
}

// TestAccelEquivalent: value equality up to the display name, nil-safe.
func TestAccelEquivalent(t *testing.T) {
	a := SimbaChiplet(dataflow.OS)
	b := SimbaChiplet(dataflow.OS)
	b.Name = "same-config-other-name"
	if !AccelEquivalent(a, b) {
		t.Error("identical configs under different names must be equivalent")
	}
	ws := SimbaChiplet(dataflow.WS)
	if AccelEquivalent(a, ws) {
		t.Error("OS and WS chiplets must not be equivalent")
	}
	if !AccelEquivalent(a, a) {
		t.Error("an accel is equivalent to itself")
	}
	if AccelEquivalent(a, nil) || AccelEquivalent(nil, a) {
		t.Error("nil is not equivalent to a real accel")
	}
	if !AccelEquivalent(nil, nil) {
		t.Error("nil == nil")
	}
}

// TestInternerBoundsPointerMaps: a long-lived cache that costs fresh
// copies of one layer keeps one cost entry, and its pointer fast-path
// maps stay within maxInternedPtrs instead of pinning every copy.
func TestInternerBoundsPointerMaps(t *testing.T) {
	c := NewCache()
	a := SimbaChiplet(dataflow.OS)
	for i := 0; i < maxInternedPtrs+100; i++ {
		l := dnn.NewLinear("fresh", 1000, 256, 256)
		if got, want := c.LayerOn(l, a), LayerOn(l, a); !reflect.DeepEqual(got, want) {
			t.Fatalf("copy %d: cached %+v != direct %+v", i, got, want)
		}
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 entry and 1 miss", st)
	}
	n := 0
	count := func(any, any) bool { n++; return true }
	c.in.layerPtrs.Range(count)
	c.in.accelPtrs.Range(count)
	if n > maxInternedPtrs {
		t.Errorf("pointer maps hold %d entries, want at most %d", n, maxInternedPtrs)
	}
}

// lineGraph returns a graph of n nodes alternating two layer shapes.
func lineGraph(name string, n int) *dnn.Graph {
	g := dnn.NewGraph(name)
	var prev []*dnn.Node
	for i := 0; i < n; i++ {
		l := dnn.NewLinear(fmt.Sprintf("l%d", i), 1000, 256, 256)
		if i%2 == 1 {
			l = dnn.NewSoftmax(fmt.Sprintf("sm%d", i), 8, 1000, 256)
		}
		prev = []*dnn.Node{g.Add(l, prev...)}
	}
	return g
}

// TestNodeCostsShareOneVector: equal accelerators behind distinct
// pointers share one stored vector per graph, a graph that grew gets a
// vector of its new length, and a nil cache builds a fresh vector per
// call.
func TestNodeCostsShareOneVector(t *testing.T) {
	c := NewCache()
	g := lineGraph("g", 4)
	a, b := SimbaChiplet(dataflow.OS), SimbaChiplet(dataflow.OS)
	if va, vb := c.NodeCosts(g, a), c.NodeCosts(g, b); &va[0] != &vb[0] {
		t.Error("equal accelerators behind distinct pointers got distinct vectors")
	}
	if ws := c.NodeCosts(g, SimbaChiplet(dataflow.WS)); ws[0] == c.NodeCosts(g, a)[0] {
		t.Error("OS and WS share a node cost")
	}
	g.Add(dnn.NewLinear("tail", 1000, 256, 256))
	if v := c.NodeCosts(g, a); len(v) != 5 {
		t.Errorf("a grown graph's vector holds %d costs, want 5", len(v))
	}
	var nilCache *Cache
	if va, vb := nilCache.NodeCosts(g, a), nilCache.NodeCosts(g, a); &va[0] == &vb[0] {
		t.Error("a nil cache returned one vector twice")
	}
}

// TestNodeCostsBounded: a long-lived cache that costs fresh graphs of
// one shape keeps at most maxNodeCosts node entries in its vectors
// instead of pinning every graph, and a vector rebuilt after the store
// was cleared holds the same values.
func TestNodeCostsBounded(t *testing.T) {
	c := NewCache()
	a := SimbaChiplet(dataflow.OS)
	const nodes = 64
	first := lineGraph("first", nodes)
	want := slices.Clone(c.NodeCosts(first, a))
	for i := 0; i < maxNodeCosts/nodes+8; i++ {
		g := lineGraph("fresh", nodes)
		if got := c.NodeCosts(g, a); !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %d: vector %+v, want %+v", i, got, want)
		}
	}
	stored := 0
	c.vecs.Range(func(_, v any) bool { stored += len(v.([]LayerCost)); return true })
	if stored > maxNodeCosts || stored != c.vecNodes {
		t.Errorf("vectors hold %d node entries (counted %d), want at most %d", stored, c.vecNodes, maxNodeCosts)
	}
	if got := c.NodeCosts(first, a); !reflect.DeepEqual(got, want) {
		t.Errorf("rebuilt vector %+v, want %+v", got, want)
	}
	if st := c.Stats(); st.Entries != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 entries and 2 misses", st)
	}
}

// TestNodeCostsConcurrent: callers racing on one (graph, accelerator)
// all get the one stored vector.
func TestNodeCostsConcurrent(t *testing.T) {
	c := NewCache()
	g := lineGraph("g", 16)
	a := SimbaChiplet(dataflow.OS)
	const callers = 16
	got := make([][]LayerCost, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = c.NodeCosts(g, SimbaChiplet(dataflow.OS))
		}()
	}
	close(start)
	wg.Wait()
	stored := c.NodeCosts(g, a)
	for i, v := range got {
		if &v[0] != &stored[0] {
			t.Errorf("caller %d got its own vector", i)
		}
	}
}
