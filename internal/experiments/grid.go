package experiments

import (
	"context"

	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/pipeline"
	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sched"
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
// serially at one worker. Every schedule-building design point is a
// scenario.Spec compiled by layerwise on the engine's own cache instead
// of this package's global one; the dse-lcstr points scan a DSE cost
// table built on the same cache.

// layerwise compiles one design point through scenario.Prepare on the
// given layer-cost cache — the spec's workload comes from scenario's
// compiled-pipeline memo — and returns its schedule with the layerwise
// pipelining metrics. Goroutine-safe given a concurrency-safe (or nil)
// cache.
func layerwise(sp scenario.Spec, cache *costmodel.Cache) (*sched.Schedule, pipeline.Metrics, error) {
	pr, err := scenario.Prepare(sp, cache)
	if err != nil {
		return nil, pipeline.Metrics{}, err
	}
	return pr.Schedule, pipeline.Compute(pr.Schedule, pipeline.Layerwise), nil
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
