package costmodel_test

import (
	"reflect"
	"testing"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/workloads"
)

// TestNodeCostsMatchLayerOn: every entry of a node-cost vector is the
// LayerOn cost of the node at its index with Layer cleared, and GraphOn
// is LayerOn per node with Layer set, summed in node order. It checks
// every graph of the default pipeline on every library chiplet type
// under OS and WS, through a fresh cache, the same cache again (the
// stored vector) and a nil cache.
func TestNodeCostsMatchLayerOn(t *testing.T) {
	p, err := workloads.Perception(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := costmodel.NewCache()
	for _, typ := range chiplet.TypeNames() {
		for _, style := range []dataflow.Style{dataflow.OS, dataflow.WS} {
			a, err := chiplet.TypeChiplet(typ, style)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range p.Stages {
				for _, g := range st.Graphs {
					for pass, c := range []*costmodel.Cache{cache, cache, nil} {
						vec := c.NodeCosts(g, a)
						if len(vec) != g.Len() {
							t.Fatalf("%s on %s pass %d: %d costs for %d nodes", g.Name, a.Name, pass, len(vec), g.Len())
						}
						gc := c.GraphOn(g, a)
						var ms, ej float64
						for _, n := range g.Nodes() {
							want := costmodel.LayerOn(n.Layer, a)
							ms += want.LatencyMs
							ej += want.EnergyJ
							if !reflect.DeepEqual(gc.PerLayer[n.ID], want) {
								t.Errorf("%s/%s on %s pass %d: GraphOn %+v, LayerOn %+v",
									g.Name, n.Layer.Name, a.Name, pass, gc.PerLayer[n.ID], want)
							}
							want.Layer = nil
							if !reflect.DeepEqual(vec[n.ID], want) {
								t.Errorf("%s/%s on %s pass %d: NodeCosts %+v, LayerOn %+v",
									g.Name, n.Layer.Name, a.Name, pass, vec[n.ID], want)
							}
						}
						if gc.LatencyMs != ms || gc.EnergyJ != ej {
							t.Errorf("%s on %s pass %d: GraphOn sums %v ms / %v J, LayerOn %v / %v",
								g.Name, a.Name, pass, gc.LatencyMs, gc.EnergyJ, ms, ej)
						}
					}
				}
			}
		}
	}
}
