package costmodel

import (
	"reflect"
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
