package experiments

import (
	"context"
	"sync"

	"mcmnpu/internal/report"
	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sweep"
	"mcmnpu/internal/workloads"
)

// Grid wiring: the named experiment scenarios a sweep.Engine runs
// through RunGridSharded. This lives here rather than in internal/sweep
// so the engine stays a pure execution layer (workers, cancellation,
// reduce) while the domain knowledge — which experiments exist and how
// they render — stays with the experiments.
//
// Each experiment is defined once, as a plan function that builds its
// sweep.GridPlan and returns the typed rows the plan's points fill: the
// grid, the CLIs and the tests all run that plan through the engine,
// serially at one worker. Every schedule-building experiment is a
// designPlan: a list of scenario.Spec design points, each prepared on
// the engine (its cache and plan store) instead of this package's
// global cache, and a row function over the prepared designs; the
// dse-lcstr points scan a DSE cost table built on the same cache. The
// plans of one grid run share a design memo keyed by scenario.Design,
// so a design two points both build (the mesh-size points are the
// frontier's OS points, and cameras/8, temporal-depth/12, tolerance/5%,
// the paper's NoP point and mesh-size/6x6 are one design) is built
// once.

// gridRun is one grid run: the engine its plans run on and the design
// memo their points share.
type gridRun struct {
	eng     *sweep.Engine
	mu      sync.Mutex
	designs map[scenario.Design]*design
}

func newGridRun(e *sweep.Engine) *gridRun {
	return &gridRun{eng: e, designs: make(map[scenario.Design]*design)}
}

// design is one memoized design point: the spec of the point that
// claimed it, prepared once on first use.
type design struct {
	spec scenario.Spec
	once sync.Once
	prep *scenario.Prepared
	err  error
}

// prepared prepares the design on eng the first time it is asked for,
// and returns that result to every caller.
func (d *design) prepared(eng *sweep.Engine) (*scenario.Prepared, error) {
	d.once.Do(func() { d.prep, d.err = scenario.PrepareOn(d.spec, eng) })
	return d.prep, d.err
}

// claim returns the memo entry of sp's design, and whether sp is the
// first point of the run to claim it. A design's key is the
// scenario.Design it builds; a spec that cannot name one (it fails to
// validate) shares with no other point.
func (g *gridRun) claim(sp scenario.Spec) (*design, bool) {
	key, err := sp.Design()
	if err != nil {
		return &design{spec: sp}, true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if d, seen := g.designs[key]; seen {
		return d, false
	}
	d := &design{spec: sp}
	g.designs[key] = d
	return d, true
}

// designPlan is the grid plan of a schedule-building experiment: point
// i prepares specs[i] on the engine's layer-cost cache, and row turns
// the prepared design, or the error that refused it, into rows[i] (a
// row error fails the point). finish renders the completed rows.
//
// Each point claims its design as the plan is built, and RunGridSharded
// builds plans serially, in scenario order. A point whose design an
// earlier point claimed gets weight 0, so the heaviest-first dispatch
// runs it last, and it reads the same *scenario.Prepared. A design
// that failed is not shared: such a point prepares its own spec, so
// its error names its own point.
func designPlan[R any](g *gridRun, specs []scenario.Spec, weight func(i int) float64,
	row func(i int, p *scenario.Prepared, err error) (R, error),
	finish func([]R) *report.Table) (sweep.GridPlan, []R) {
	rows := make([]R, len(specs))
	designs := make([]*design, len(specs))
	first := make([]bool, len(specs))
	for i, sp := range specs {
		designs[i], first[i] = g.claim(sp)
	}
	return sweep.GridPlan{
		Points: len(specs),
		Weight: func(i int) float64 {
			if !first[i] {
				return 0
			}
			return weight(i)
		},
		Run: func(_ context.Context, i int) error {
			p, err := designs[i].prepared(g.eng)
			if err != nil && !first[i] {
				p, err = scenario.PrepareOn(specs[i], g.eng)
			}
			rows[i], err = row(i, p, err)
			return err
		},
		Finish: func() (*report.Table, error) { return finish(rows), nil },
	}, rows
}

// gridScenario names a plan function as a grid scenario. The typed rows
// stay with the plan's Finish; the grid only needs the rendered table.
func gridScenario[R any](g *gridRun, name string,
	plan func(*gridRun, workloads.Config) (sweep.GridPlan, []R)) sweep.ShardedScenario {
	return sweep.ShardedScenario{Name: name, Prepare: func(_ context.Context, cfg workloads.Config) (sweep.GridPlan, error) {
		p, _ := plan(g, cfg)
		return p, nil
	}}
}

// ShardedGrid returns the standard experiment grid decomposed into
// point-level units for Engine.RunGridSharded: the sweeps the paper
// varies one at a time (camera count, temporal queue depth, NoP link
// parameters, mesh size, scheduler tolerance), the mesh x dataflow
// Pareto frontier summary, and a DSE Lcstr sweep. Weights are rough
// Build cost estimates (chiplet count of the point's mesh, scaled by
// replica or iteration pressure where it matters) so the pool starts
// the 12x12 builds before the 4x4 ones.
//
// Each call is one grid run: its scenarios share one design memo, so
// every distinct design is built once however many scenarios contain
// it. Run a fresh ShardedGrid per grid run; a second run of the same
// slice would read the first one's designs.
func ShardedGrid(e *sweep.Engine) []sweep.ShardedScenario {
	return newGridRun(e).scenarios()
}

// scenarios returns the standard grid's scenarios on g.
func (g *gridRun) scenarios() []sweep.ShardedScenario {
	return []sweep.ShardedScenario{
		gridScenario(g, "cameras", cameraPlan),
		gridScenario(g, "temporal-depth", temporalPlan),
		gridScenario(g, "nop-bandwidth", nopPlan),
		gridScenario(g, "mesh-size", meshPlan),
		gridScenario(g, "frontier", frontierPlan),
		gridScenario(g, "tolerance", tolerancePlan),
		gridScenario(g, "dse-lcstr", lcstrPlan),
	}
}

// SelectGrid returns the ShardedGrid scenarios whose names are listed,
// in grid order, as one grid run. Unknown names select nothing.
func SelectGrid(e *sweep.Engine, names ...string) []sweep.ShardedScenario {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []sweep.ShardedScenario
	for _, sc := range ShardedGrid(e) {
		if want[sc.Name] {
			out = append(out, sc)
		}
	}
	return out
}

// GridScenarioNames returns the sharded grid's scenario names in run
// order — the vocabulary a grid-sweep request selects from. The
// closures ShardedGrid builds are never invoked, so no engine is
// needed.
func GridScenarioNames() []string {
	all := ShardedGrid(nil)
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}
