package experiments

import (
	"context"

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
// the engine's own cache instead of this package's global one, and a
// row function over the prepared designs; the dse-lcstr points scan a
// DSE cost table built on the same cache.

// designPlan is the grid plan of a schedule-building experiment: point
// i prepares specs[i] on the engine's layer-cost cache, and row turns
// the prepared design, or the error that refused it, into rows[i] (a
// row error fails the point). finish renders the completed rows.
func designPlan[R any](e *sweep.Engine, specs []scenario.Spec, weight func(i int) float64,
	row func(i int, p *scenario.Prepared, err error) (R, error),
	finish func([]R) *report.Table) (sweep.GridPlan, []R) {
	rows := make([]R, len(specs))
	return sweep.GridPlan{
		Points: len(specs),
		Weight: weight,
		Run: func(_ context.Context, i int) error {
			p, err := scenario.Prepare(specs[i], e.Cache())
			rows[i], err = row(i, p, err)
			return err
		},
		Finish: func() (*report.Table, error) { return finish(rows), nil },
	}, rows
}

// gridScenario names a plan function as a grid scenario. The typed rows
// stay with the plan's Finish; the grid only needs the rendered table.
func gridScenario[R any](e *sweep.Engine, name string,
	plan func(*sweep.Engine, workloads.Config) (sweep.GridPlan, []R)) sweep.ShardedScenario {
	return sweep.ShardedScenario{Name: name, Prepare: func(_ context.Context, cfg workloads.Config) (sweep.GridPlan, error) {
		p, _ := plan(e, cfg)
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
func ShardedGrid(e *sweep.Engine) []sweep.ShardedScenario {
	return []sweep.ShardedScenario{
		gridScenario(e, "cameras", cameraPlan),
		gridScenario(e, "temporal-depth", temporalPlan),
		gridScenario(e, "nop-bandwidth", nopPlan),
		gridScenario(e, "mesh-size", meshPlan),
		gridScenario(e, "frontier", frontierPlan),
		gridScenario(e, "tolerance", tolerancePlan),
		gridScenario(e, "dse-lcstr", lcstrPlan),
	}
}

// SelectGrid returns the ShardedGrid scenarios whose names are listed,
// in grid order. Unknown names select nothing.
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
