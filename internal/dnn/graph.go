package dnn

import "fmt"

// Node is a layer instance embedded in a graph with explicit
// dependencies. A node may depend on multiple producers (fusion, concat,
// residual joins).
type Node struct {
	ID    int
	Layer *Layer
	Deps  []*Node
}

// Graph is a DAG of layers. Nodes are appended via Add; dependencies must
// already be members of the same graph, which makes cycles impossible to
// construct through the public API (Verify re-checks regardless).
type Graph struct {
	Name  string
	nodes []*Node
	byID  map[int]*Node
}

// NewGraph creates an empty named graph.
func NewGraph(name string) *Graph {
	return &Graph{Name: name, byID: make(map[int]*Node)}
}

// Add appends a layer with the given dependencies and returns its node.
// It panics if a dependency belongs to a different graph, since that is a
// programming error in a workload builder.
func (g *Graph) Add(l *Layer, deps ...*Node) *Node {
	for _, d := range deps {
		if d == nil || g.byID[d.ID] != d {
			panic(fmt.Sprintf("dnn: dependency of %q not in graph %q", l.Name, g.Name))
		}
	}
	n := &Node{ID: len(g.nodes), Layer: l, Deps: append([]*Node(nil), deps...)}
	g.nodes = append(g.nodes, n)
	g.byID[n.ID] = n
	return n
}

// Nodes returns the nodes in insertion order (a valid topological order).
func (g *Graph) Nodes() []*Node { return g.nodes }

// Len returns the node count.
func (g *Graph) Len() int { return len(g.nodes) }

// Verify validates every layer and checks that insertion order is a
// topological order (every dependency precedes its dependent).
func (g *Graph) Verify() error {
	for _, n := range g.nodes {
		if err := n.Layer.Validate(); err != nil {
			return fmt.Errorf("graph %q: %w", g.Name, err)
		}
		for _, d := range n.Deps {
			if d.ID >= n.ID {
				return fmt.Errorf("graph %q: node %q depends on later node %q",
					g.Name, n.Layer.Name, d.Layer.Name)
			}
		}
	}
	return nil
}

// Summary aggregates whole-graph statistics.
type Summary struct {
	Layers      int
	MACs        int64
	Params      int64
	Activations int64 // sum of output elements
	VectorOps   int64
}

// Summarize computes aggregate statistics over all nodes.
func (g *Graph) Summarize() Summary {
	var s Summary
	s.Layers = len(g.nodes)
	for _, n := range g.nodes {
		s.MACs += n.Layer.MACs()
		s.Params += n.Layer.Params()
		s.Activations += n.Layer.OutputElems()
		s.VectorOps += n.Layer.VectorOps
	}
	return s
}

// Tag sets the Stage tag on every layer of the graph (chainable).
func (g *Graph) Tag(stage string) *Graph {
	for _, n := range g.nodes {
		n.Layer.Stage = stage
	}
	return g
}
