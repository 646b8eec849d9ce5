package pareto

import (
	"context"
	"fmt"
	"sort"

	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sweep"
)

// evaluator is the bound → prune → stream pipeline both explorers run.
// bound computes analytic lower bounds for a batch of candidates,
// fanning every candidate x scenario pair across the engine (results
// land by index) and aggregating worst case per candidate in a serial
// loop. settle then walks a bounded batch in ascending lower-bound
// order — a serial, deterministic loop — and either prunes each
// candidate (its safety-discounted bound vector is dominated by an
// already-realized frontier point, so its realized point, which is
// componentwise no better, would be too) or streams it and offers the
// realized point to the frontier. The frontier and the counts persist
// across batches: Explore settles one batch, Evolve one per generation.
type evaluator struct {
	opts       Options // Engine is never nil
	objectives []string
	pending    map[string]bounded // bounded, not yet settled
	frontier   Frontier

	simulated, pruned, infeasible int
}

// bounded is one candidate between bound and settle: its Eval skeleton
// (worst-case lower bounds, PE counts, feasibility) plus the prepared
// scenarios a surviving candidate streams on.
type bounded struct {
	e     Eval
	preps []*scenario.Prepared
}

// newEvaluator validates opts; a nil engine is the serial engine, one
// worker.
func newEvaluator(opts Options) (*evaluator, error) {
	objectives, err := resolveObjectives(opts)
	if err != nil {
		return nil, err
	}
	if opts.Engine == nil {
		opts.Engine = sweep.New(1)
	}
	return &evaluator{opts: opts, objectives: objectives, pending: map[string]bounded{}}, nil
}

// bound computes the aggregated analytic bound of every candidate in
// cands — unique names — not already pending.
func (v *evaluator) bound(ctx context.Context, cands []Candidate) error {
	todo := make([]Candidate, 0, len(cands))
	names := make([]string, 0, len(cands))
	for _, c := range cands {
		n := c.Name()
		if _, ok := v.pending[n]; !ok {
			todo = append(todo, c)
			names = append(names, n)
		}
	}
	ns := len(v.opts.Scenarios)
	preps := make([]*scenario.Prepared, len(todo)*ns)
	errs := make([]error, len(preps))
	if err := v.opts.Engine.Each(ctx, len(preps), func(i int) error {
		preps[i], errs[i] = scenario.PrepareOn(todo[i/ns].Apply(v.opts.Scenarios[i%ns]), v.opts.Engine)
		return nil
	}); err != nil {
		return err
	}
	for ci, c := range todo {
		b := bounded{e: Eval{Candidate: c, Name: names[ci]}}
		for i := ci * ns; i < (ci+1)*ns; i++ {
			if errs[i] != nil {
				b.e.Infeasible = true
				if b.e.Reason == "" {
					b.e.Reason = errs[i].Error()
				}
				continue
			}
			p := preps[i]
			b.e.Chiplets, b.e.PEs = p.Schedule.MCM.Chiplets(), p.Schedule.MCM.TotalPEs()
			b.e.LBLatMs = max(b.e.LBLatMs, p.Metrics.E2EMs)
			b.e.LBEnergyJ = max(b.e.LBEnergyJ, p.Metrics.EnergyJ)
			b.preps = append(b.preps, p)
		}
		v.pending[names[ci]] = b
	}
	return nil
}

// settle decides every candidate of cands — bounded, unique names —
// cheapest lower bound first (realizing likely-frontier points early
// maximizes pruning). It returns the settled Evals in cands order and
// the decision order as indices into cands.
func (v *evaluator) settle(ctx context.Context, cands []Candidate) ([]Eval, []int, error) {
	evals := make([]Eval, len(cands))
	preps := make([][]*scenario.Prepared, len(cands))
	order := make([]int, len(cands))
	for i, c := range cands {
		n := c.Name()
		b := v.pending[n]
		delete(v.pending, n)
		evals[i], preps[i], order[i] = b.e, b.preps, i
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := evals[order[a]], evals[order[b]]
		if ea.LBLatMs != eb.LBLatMs {
			return ea.LBLatMs < eb.LBLatMs
		}
		if ea.LBEnergyJ != eb.LBEnergyJ {
			return ea.LBEnergyJ < eb.LBEnergyJ
		}
		if ea.PEs != eb.PEs {
			return ea.PEs < eb.PEs
		}
		return ea.Name < eb.Name
	})

	ropts := scenario.RunOptions{
		Frames:       v.opts.Frames,
		WindowFrames: v.opts.WindowFrames,
		Engine:       v.opts.Engine,
	}
	for _, i := range order {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		e := &evals[i]
		if e.Infeasible {
			v.infeasible++
			continue
		}
		lb := objVec(v.objectives, e.LBLatMs*lbSafety, e.LBEnergyJ, e.PEs)
		if !v.opts.NoPrune && v.frontier.DominatedBy(lb) {
			e.Pruned = true
			v.pruned++
			continue
		}
		// Stream on the schedules bound built for this exact (candidate,
		// scenario) pair — the build was the serial half of every full
		// run.
		for _, prep := range preps[i] {
			r, err := prep.Run(ctx, ropts)
			if err != nil {
				return nil, nil, fmt.Errorf("pareto %s: %w", e.Name, err)
			}
			e.P99Ms = max(e.P99Ms, r.P99Ms)
			e.EnergyJ = max(e.EnergyJ, r.EnergyPerFrameJ)
		}
		v.simulated++
		v.frontier.Add(Point{Name: e.Name, Vec: objVec(v.objectives, e.P99Ms, e.EnergyJ, e.PEs)})
	}
	return evals, order, nil
}

// report assembles the Report over evals, every settled candidate in
// the explorer's listing order. The frontier settles only after every
// insertion (late points can evict earlier ones), so membership is
// flagged here, at the end.
func (v *evaluator) report(evals []Eval) Report {
	rep := Report{
		Objectives: v.objectives,
		Evals:      evals,
		Evaluated:  v.simulated,
		Pruned:     v.pruned,
		Infeasible: v.infeasible,
	}
	for _, sp := range v.opts.Scenarios {
		rep.Scenarios = append(rep.Scenarios, sp.Name)
	}
	on := map[string]bool{}
	for _, p := range v.frontier.Points() {
		on[p.Name] = true
	}
	byName := make(map[string]Eval, len(evals))
	for i := range rep.Evals {
		rep.Evals[i].OnFrontier = on[rep.Evals[i].Name]
		byName[rep.Evals[i].Name] = rep.Evals[i]
	}
	for _, p := range v.frontier.Points() {
		rep.Frontier = append(rep.Frontier, byName[p.Name])
	}
	return rep
}
