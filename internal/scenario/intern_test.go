package scenario

import (
	"reflect"
	"testing"

	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/dnn"
	"mcmnpu/internal/workloads"
)

// TestInternedTableMatchesDirect is the property test for the interning
// layer: over every layer of every registry scenario's compiled
// workload, the precomputed index-addressed table must return
// bit-for-bit the value a direct (uncached, unhashed) LayerOn
// evaluation returns — on the scenario's own package chiplet and on
// both Simba dataflow references. One shared cache serves every
// scenario, so the test also exercises cross-scenario entry sharing
// (replicated camera trunks intern to the same IDs).
func TestInternedTableMatchesDirect(t *testing.T) {
	cache := costmodel.NewCache()
	for _, sp := range Registry() {
		sp, m, err := sp.instantiate()
		if err != nil {
			t.Fatalf("%s: instantiate: %v", sp.Name, err)
		}
		p, err := workloads.Perception(sp.Workload)
		if err != nil {
			t.Fatalf("%s: perception: %v", sp.Name, err)
		}
		var layers []*dnn.Layer
		for _, st := range p.Stages {
			for _, g := range st.Graphs {
				for _, n := range g.Nodes() {
					layers = append(layers, n.Layer)
				}
			}
		}
		if len(layers) == 0 {
			t.Fatalf("%s: no layers compiled", sp.Name)
		}
		accels := []*costmodel.Accel{
			m.At(m.Coords()[0]),
			costmodel.SimbaChiplet(dataflow.OS),
			costmodel.SimbaChiplet(dataflow.WS),
		}
		tab := cache.NewTable(layers, accels)
		for i, l := range layers {
			for j, a := range accels {
				want := costmodel.LayerOn(l, a)
				got := tab.Cost(i, j)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: table[%d][%d] (%s on %s) diverges from direct LayerOn:\n got %+v\nwant %+v",
						sp.Name, i, j, l.Name, a.Name, got, want)
				}
			}
		}
	}
}
