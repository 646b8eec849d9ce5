package dnn

import "testing"

func smallGraph() (*Graph, []*Node) {
	g := NewGraph("g")
	a := g.Add(NewLinear("a", 10, 4, 4))
	b := g.Add(NewLinear("b", 10, 4, 4), a)
	c := g.Add(NewLinear("c", 10, 4, 4), a)
	d := g.Add(NewLinear("d", 10, 8, 4), b, c)
	return g, []*Node{a, b, c, d}
}

func TestGraphAddAndVerify(t *testing.T) {
	g, ns := smallGraph()
	if g.Len() != 4 {
		t.Fatalf("len = %d", g.Len())
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(ns[3].Deps) != 2 {
		t.Error("join node should have 2 deps")
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g, ns := smallGraph()
	// Forge a cycle by hand (the public API cannot). Nodes are stored in
	// topological order, so the cycle shows as a back-edge that Verify
	// must reject.
	ns[0].Deps = append(ns[0].Deps, ns[3])
	if err := g.Verify(); err == nil {
		t.Error("Verify should reject back-edges")
	}
}

func TestGraphAddForeignDepPanics(t *testing.T) {
	g1 := NewGraph("g1")
	g2 := NewGraph("g2")
	n := g1.Add(NewLinear("a", 10, 4, 4))
	defer func() {
		if recover() == nil {
			t.Error("adding with foreign dep should panic")
		}
	}()
	g2.Add(NewLinear("b", 10, 4, 4), n)
}

func TestSummarize(t *testing.T) {
	g, _ := smallGraph()
	s := g.Summarize()
	if s.Layers != 4 {
		t.Errorf("layers = %d", s.Layers)
	}
	want := int64(10*4*4)*3 + 10*8*4
	if s.MACs != want {
		t.Errorf("MACs = %d, want %d", s.MACs, want)
	}
	if s.Params != 3*16+32 {
		t.Errorf("params = %d", s.Params)
	}
}

func TestTag(t *testing.T) {
	g, _ := smallGraph()
	g.Tag("FE")
	for _, n := range g.Nodes() {
		if n.Layer.Stage != "FE" {
			t.Errorf("stage = %q", n.Layer.Stage)
		}
	}
}
