package sched

import (
	"fmt"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dnn"
	"mcmnpu/internal/nop"
	"mcmnpu/internal/workloads"
)

// Template is the compile-once half of Algorithm 1: the per-stage unit
// decomposition of a pipeline plus the quadrant partition of a mesh
// geometry. Compiling is pure structural analysis — no cost evaluation
// — and the result is immutable, so one Template can instantiate
// schedules concurrently from many goroutines (the sweep grid compiles
// a scenario's template once, then Builds every point inside the worker
// pool). Each Build gets fresh pools and Units; node slices are shared
// read-only, exactly like sim.Prepare shares its compiled graph across
// frame windows.
type Template struct {
	p      *workloads.Pipeline
	pools  [][]nop.Coord
	specs  [][]unitSpec // one spec list per pipeline stage
	coords []nop.Coord  // geometry fingerprint Build validates against
}

// unitSpec is the immutable recipe for one Unit: which layers of which
// model instance it covers. Shards and placement are per-Build state.
type unitSpec struct {
	model   string
	replica int
	nodes   []*dnn.Node
}

// NewTemplate compiles the decomposition and pool partition for the
// pipeline on the mesh geometry of m. The template only depends on m's
// coordinates (not its accelerator configs or NoP parameters), so it
// can Build onto any MCM with the same geometry — the NoP-sensitivity
// sweep builds its four parameter points from one template.
func NewTemplate(p *workloads.Pipeline, m *chiplet.MCM) (*Template, error) {
	pools, err := allocatePools(m, len(p.Stages))
	if err != nil {
		return nil, err
	}
	t := &Template{p: p, pools: pools, coords: m.Coords()}
	for _, st := range p.Stages {
		t.specs = append(t.specs, decomposeStage(st))
	}
	return t, nil
}

// Pipeline returns the pipeline the template was compiled from.
func (t *Template) Pipeline() *workloads.Pipeline { return t.p }

// Build instantiates a fresh schedule on m and runs Algorithm 1's
// greedy throughput matching. m must share the template's geometry
// (same chiplet coordinates); its accelerator configs and NoP
// parameters are free to differ. Safe for concurrent use: every call
// works on its own pools and units.
//
//perf:hot — runs once per sweep candidate; its improvement loops dominate sweep time
func (t *Template) Build(m *chiplet.MCM, opts Options) (*Schedule, error) {
	if err := t.checkGeometry(m); err != nil {
		return nil, err
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 256
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = 0.05
	}
	if opts.BaseStage >= len(t.p.Stages) {
		opts.BaseStage = 0
	}
	s := &Schedule{MCM: m, Pipeline: t.p, Opts: opts, load: make(map[nop.Coord]float64)}
	costs := make(unitCosts)
	for i, st := range t.p.Stages {
		s.Stages = append(s.Stages, stageFromSpecs(i, st.Name, t.specs[i], t.pools[i], m, opts.Cache, costs))
	}
	if len(t.pools) > len(t.p.Stages) {
		// Unassigned surplus partition (e.g. the trunks quadrant in a
		// 3-stage run): modeled as an empty stage whose idle chiplets
		// borrowChiplet can raid. The pool is copied — borrowChiplet
		// splices donor pools in place, and the template's partition
		// must survive for the next Build.
		s.Stages = append(s.Stages, &StageSchedule{
			Name: "surplus", Index: len(t.p.Stages),
			Pool: append([]nop.Coord(nil), t.pools[len(t.p.Stages)]...),
			mcm:  m, cache: opts.Cache,
		})
	}
	out, err := s.solve(opts)
	s.release()
	return out, err
}

// checkGeometry verifies m carries a chiplet at every coordinate the
// template's pools reference (pool membership is by coordinate, and a
// missing chiplet would surface as a nil-accelerator panic mid-build).
func (t *Template) checkGeometry(m *chiplet.MCM) error {
	if m.Chiplets() != len(t.coords) {
		return fmt.Errorf("sched: template compiled for %d chiplets, mcm has %d", len(t.coords), m.Chiplets())
	}
	for _, c := range t.coords {
		if m.At(c) == nil {
			return fmt.Errorf("sched: template geometry mismatch: mcm has no chiplet at (%d,%d)", c.X, c.Y)
		}
	}
	return nil
}

// decomposeStage derives the initial unit recipes for one pipeline
// stage:
//
//   - Replicated stages (FE+BFPN x 8 cameras) get one whole-model unit
//     per replica.
//   - Single-model fusion stages get one unit per layer (tiny
//     non-compute layers fold into their predecessor unit).
//   - Multi-model stages (trunks) get one whole-model unit per model.
func decomposeStage(st workloads.Stage) []unitSpec {
	switch {
	case st.Replicas > 1:
		specs := make([]unitSpec, 0, st.Replicas*len(st.Graphs))
		for r := 0; r < st.Replicas; r++ {
			for _, g := range st.Graphs {
				specs = append(specs, unitSpec{model: g.Name, replica: r + 1, nodes: g.Nodes()})
			}
		}
		return specs
	case len(st.Graphs) == 1:
		g := st.Graphs[0]
		specs := make([]unitSpec, 0, len(g.Nodes()))
		for _, n := range g.Nodes() {
			if len(specs) == 0 || n.Layer.Kind.ComputeBound() {
				specs = append(specs, unitSpec{model: g.Name, nodes: []*dnn.Node{n}})
			} else {
				sp := &specs[len(specs)-1]
				sp.nodes = append(sp.nodes, n)
			}
		}
		return specs
	default:
		specs := make([]unitSpec, 0, len(st.Graphs))
		for _, g := range st.Graphs {
			specs = append(specs, unitSpec{model: g.Name, nodes: g.Nodes()})
		}
		return specs
	}
}

// stageFromSpecs instantiates a stage's working state from its compiled
// recipes. The pool is copied (Algorithm 1 splices pools while
// borrowing chiplets); node slices stay shared — nothing appends to a
// Unit's nodes after construction, segmentation only re-slices them.
// costs is the unit-cost memo of the calling Build (nil for none).
func stageFromSpecs(idx int, name string, specs []unitSpec, pool []nop.Coord, m *chiplet.MCM, cache *costmodel.Cache, costs unitCosts) *StageSchedule {
	ss := &StageSchedule{Name: name, Index: idx, Pool: append([]nop.Coord(nil), pool...), mcm: m, cache: cache, costs: costs}
	ss.Units = make([]*Unit, len(specs))
	for i, sp := range specs {
		//lint:allow hotpathalloc -- one Unit per spec, built once per schedule and retained for its lifetime; the allocation is the product
		ss.Units[i] = &Unit{StageIdx: idx, Model: sp.model, Replica: sp.replica, Nodes: sp.nodes, Shards: 1}
	}
	return ss
}
