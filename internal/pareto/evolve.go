// The evolutionary explorer: a deterministic, seeded NSGA-II loop over
// the full heterogeneous design space — mesh shape x dataflow x link
// bandwidth x per-chiplet type assignment — for spaces far too large to
// enumerate. The initial population is seeded from the analytic
// lower-bound frontier of the space's uniform-type corners; every
// genome decodes to a content-keyed candidate name and a memo
// guarantees no candidate is ever bounded or simulated twice; the
// evaluator the exhaustive explorer also runs bounds each generation and
// skips full streaming runs for candidates that cannot reach the
// frontier.
//
// Determinism contract (the exhaustive explorer's, extended): all
// randomness flows from one splitmix64 stream consumed only inside the
// serial breeding loop; the parallel phases (bound fan-out, trace-window
// streaming) write results by index and use no RNG. The report is
// therefore bit-for-bit identical across worker counts and across
// reruns with the same seed.
package pareto

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"mcmnpu/internal/chiplet"
)

// Evolution defaults: a 30-generation, 24-individual run explores a
// few hundred unique genomes — ample on million-point spaces relative
// to the analytic bound's pruning power, and small enough for CI.
const (
	DefaultGenerations = 30
	DefaultPopulation  = 24
	DefaultSeed        = 1
)

// maxPopulation bounds request-supplied population sizes (and, with
// generations, the evaluation budget).
const (
	MaxGenerations = 10000
	MaxPopulation  = 4096
)

// Genetic-operator rates. Crossover recombines two tournament winners;
// mutation then perturbs each axis independently, and each type gene
// at ~1/genome-length so one type flip per child is the expected step.
const (
	crossoverRate = 0.9
	axisMutation  = 0.2
)

// EvolveOptions tunes one evolutionary exploration. The embedded
// Options carry the scenario set, objectives, frame budget and engine
// exactly as for Explore.
type EvolveOptions struct {
	Options
	// Generations is the number of breeding rounds (0 =
	// DefaultGenerations).
	Generations int
	// Population is the population size (0 = DefaultPopulation).
	Population int
	// Seed drives the selection/crossover/mutation RNG (0 =
	// DefaultSeed). Same seed, same frontier — at any worker count.
	Seed uint64
}

// WithDefaults returns the options with each zero evolution parameter
// replaced by its default: the values Evolve runs with, and the ones a
// request's cache key hashes.
func (o EvolveOptions) WithDefaults() EvolveOptions {
	if o.Generations == 0 {
		o.Generations = DefaultGenerations
	}
	if o.Population == 0 {
		o.Population = DefaultPopulation
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	return o
}

// rng is a splitmix64 stream: the minimal deterministic generator
// (same construction as internal/trace's). All evolve randomness comes
// from one instance consumed serially.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// axes is the canonical (defaulted, deduplicated) axis value table a
// genome indexes into.
type axes struct {
	meshes []MeshDim
	dfs    []string
	bws    []float64
	types  []string
}

func newAxes(space Space) axes {
	s := space.WithDefaults()
	return axes{meshes: s.Meshes, dfs: s.Dataflows, bws: s.LinkBWGBs, types: s.Types}
}

// genome is one design point in index form: axis indices plus, when
// the space has a type axis, one type index per chiplet (row-major,
// sized for the genome's mesh).
type genome struct {
	mesh, df, bw int
	types        []uint8
}

// candidate decodes the genome. Uniform type assignments collapse to
// the single-name form so a genome that happens to be a grid corner
// shares the corner's candidate name (and therefore its memo entry).
func (ax axes) candidate(g genome) Candidate {
	c := Candidate{Mesh: ax.meshes[g.mesh], Dataflow: ax.dfs[g.df], LinkBWGBs: ax.bws[g.bw]}
	if len(g.types) > 0 {
		names := make([]string, len(g.types))
		for i, ti := range g.types {
			names[i] = ax.types[ti]
		}
		c.Types = chiplet.CompressTypes(names)
	}
	return c
}

// uniform returns the genome of a grid corner: uniform type ti across
// the mesh (ti < 0 for spaces without a type axis).
func (ax axes) uniform(mi, dfi, bwi, ti int) genome {
	g := genome{mesh: mi, df: dfi, bw: bwi}
	if ti >= 0 {
		n := ax.meshes[mi].W * ax.meshes[mi].H
		g.types = make([]uint8, n)
		for i := range g.types {
			g.types[i] = uint8(ti)
		}
	}
	return g
}

// random draws a uniformly random genome.
func (ax axes) random(r *rng) genome {
	g := genome{mesh: r.intn(len(ax.meshes)), df: r.intn(len(ax.dfs)), bw: r.intn(len(ax.bws))}
	if len(ax.types) > 0 {
		n := ax.meshes[g.mesh].W * ax.meshes[g.mesh].H
		g.types = make([]uint8, n)
		for i := range g.types {
			g.types[i] = uint8(r.intn(len(ax.types)))
		}
	}
	return g
}

// evolver is one run's working state: the genome axes, the breeding
// RNG, and the content-keyed memo over the shared evaluator.
type evolver struct {
	ax   axes
	opts EvolveOptions
	v    *evaluator
	rng  rng

	recs     map[string]*Eval // genome name -> settled evaluation record
	order    []string         // first-seen record order
	memoHits int
}

// Evolve searches the space with seeded NSGA-II and returns a report
// of every unique candidate it touched, with the realized frontier.
//
//perf:hot — the population loop multiplies candidate x scenario evaluations at scale
func Evolve(ctx context.Context, space Space, opts EvolveOptions) (Report, error) {
	v, err := newEvaluator(opts.Options)
	if err != nil {
		return Report{}, err
	}
	opts = opts.WithDefaults()
	if opts.Generations < 0 || opts.Generations > MaxGenerations {
		return Report{}, fmt.Errorf("pareto: generations %d out of range [1, %d]", opts.Generations, MaxGenerations)
	}
	if opts.Population < 2 || opts.Population > MaxPopulation {
		return Report{}, fmt.Errorf("pareto: population %d out of range [2, %d]", opts.Population, MaxPopulation)
	}
	ax := newAxes(space)
	for _, t := range ax.types {
		if _, err := chiplet.LookupType(t); err != nil {
			return Report{}, fmt.Errorf("pareto: %w", err)
		}
	}

	ev := &evolver{ax: ax, opts: opts, v: v, rng: rng{state: opts.Seed}, recs: map[string]*Eval{}}

	pop, seeded, err := ev.seedPopulation(ctx)
	if err != nil {
		return Report{}, err
	}
	if err := ev.evaluate(ctx, pop); err != nil {
		return Report{}, err
	}
	for gen := 0; gen < opts.Generations; gen++ {
		off := ev.breed(pop)
		if err := ev.evaluate(ctx, off); err != nil {
			return Report{}, err
		}
		pop = ev.selectNext(append(pop, off...))
	}
	return ev.report(space, seeded), nil
}

// seedPopulation builds generation 0: the analytic lower-bound
// frontier of the space's uniform-type grid corners (cheapest designs
// that could possibly win, realized first to maximize pruning), padded
// to size with random genomes.
func (ev *evolver) seedPopulation(ctx context.Context) ([]genome, int, error) {
	type corner struct {
		g    genome
		name string
	}
	tis := []int{-1}
	if len(ev.ax.types) > 0 {
		tis = make([]int, len(ev.ax.types))
		for ti := range ev.ax.types {
			tis[ti] = ti
		}
	}
	corners := make([]corner, 0, len(ev.ax.meshes)*len(ev.ax.dfs)*len(ev.ax.bws)*len(tis))
	seen := map[string]bool{}
	for mi := range ev.ax.meshes {
		for dfi := range ev.ax.dfs {
			for bwi := range ev.ax.bws {
				for _, ti := range tis {
					g := ev.ax.uniform(mi, dfi, bwi, ti)
					n := ev.ax.candidate(g).Name()
					if !seen[n] {
						seen[n] = true
						corners = append(corners, corner{g: g, name: n})
					}
				}
			}
		}
	}
	cands := make([]Candidate, len(corners))
	for i, c := range corners {
		cands[i] = ev.ax.candidate(c.g)
	}
	if err := ev.v.bound(ctx, cands); err != nil {
		return nil, 0, err
	}

	var lb Frontier
	for _, c := range corners {
		e := ev.v.pending[c.name].e
		if e.Infeasible {
			continue
		}
		lb.Add(Point{Name: c.name, Vec: objVec(ev.v.objectives, e.LBLatMs, e.LBEnergyJ, e.PEs)})
	}
	byName := map[string]genome{}
	for _, c := range corners {
		byName[c.name] = c.g
	}
	pop := make([]genome, 0, ev.opts.Population)
	for _, p := range lb.Points() {
		if len(pop) == ev.opts.Population {
			break
		}
		pop = append(pop, byName[p.Name])
	}
	seeded := len(pop)
	for len(pop) < ev.opts.Population {
		pop = append(pop, ev.ax.random(&ev.rng))
	}
	return pop, seeded, nil
}

// evaluate settles every genome in gs: memo re-encounters are free,
// fresh candidates go through one evaluator batch (bound in parallel,
// settled serially in ascending bound order) and are memoized in
// decision order.
func (ev *evolver) evaluate(ctx context.Context, gs []genome) error {
	fresh := make([]Candidate, 0, len(gs))
	batch := map[string]bool{}
	for _, g := range gs {
		c := ev.ax.candidate(g)
		n := c.Name()
		if _, ok := ev.recs[n]; ok || batch[n] {
			ev.memoHits++
			continue
		}
		batch[n] = true
		fresh = append(fresh, c)
	}
	if err := ev.v.bound(ctx, fresh); err != nil {
		return err
	}
	evals, order, err := ev.v.settle(ctx, fresh)
	if err != nil {
		return err
	}
	for _, i := range order {
		e := evals[i]
		ev.recs[e.Name] = &e
		ev.order = append(ev.order, e.Name)
	}
	return nil
}

// fitness returns the ranking vector of a settled candidate: the
// realized objective point when simulated, the safety-discounted bound
// when pruned (optimistic, but only used to order the breeding pool —
// pruned genomes still never enter the frontier), nil when infeasible.
func (ev *evolver) fitness(name string) []float64 {
	e := ev.recs[name]
	switch {
	case e.Infeasible:
		return nil
	case e.Pruned:
		return objVec(ev.v.objectives, e.LBLatMs*lbSafety, e.LBEnergyJ, e.PEs)
	default:
		return objVec(ev.v.objectives, e.P99Ms, e.EnergyJ, e.PEs)
	}
}

// indivs decorates genomes with their names and fitness vectors.
func (ev *evolver) indivs(gs []genome) []indiv {
	out := make([]indiv, len(gs))
	for i, g := range gs {
		n := ev.ax.candidate(g).Name()
		out[i] = indiv{g: g, name: n, vec: ev.fitness(n)}
	}
	return out
}

// breed produces one offspring generation: binary tournaments on
// (rank, crowding), per-axis crossover, per-axis and per-gene
// mutation. Runs serially on the evolver's single RNG stream.
func (ev *evolver) breed(pop []genome) []genome {
	inds := ev.indivs(pop)
	fronts := nondominatedFronts(inds)
	rank := ranks(inds, fronts)
	crowd := make([]float64, len(inds))
	for _, f := range fronts {
		for i, d := range crowdingDistances(inds, f) {
			if d != 0 {
				crowd[i] = d
			}
		}
	}
	pick := func() genome {
		i, j := ev.rng.intn(len(inds)), ev.rng.intn(len(inds))
		if better(inds[i], inds[j], rank[i], rank[j], crowd[i], crowd[j]) {
			return inds[i].g
		}
		return inds[j].g
	}
	off := make([]genome, 0, len(pop))
	for len(off) < len(pop) {
		a, b := pick(), pick()
		child := a
		if ev.rng.float() < crossoverRate {
			child = ev.crossover(a, b)
		} else {
			child = cloneGenome(child)
		}
		ev.mutate(&child)
		off = append(off, child)
	}
	return off
}

func cloneGenome(g genome) genome {
	g.types = append([]uint8(nil), g.types...)
	return g
}

// crossover mixes two parents axis-by-axis. The mesh donor also
// donates the type-assignment length; positions the other parent also
// covers then swap in with a coin flip each (uniform crossover on the
// shared prefix).
func (ev *evolver) crossover(a, b genome) genome {
	child := cloneGenome(a)
	other := b
	if ev.rng.intn(2) == 1 {
		child = cloneGenome(b)
		other = a
	}
	if ev.rng.intn(2) == 1 {
		child.df = other.df
	}
	if ev.rng.intn(2) == 1 {
		child.bw = other.bw
	}
	for i := range child.types {
		if i < len(other.types) && ev.rng.intn(2) == 1 {
			child.types[i] = other.types[i]
		}
	}
	return child
}

// mutate perturbs the genome in place: each scalar axis resamples with
// probability axisMutation (a mesh change re-sizes the type assignment,
// preserving the shared prefix), and each type gene flips with
// probability 1/len so the expected step is one flip.
func (ev *evolver) mutate(g *genome) {
	if len(ev.ax.meshes) > 1 && ev.rng.float() < axisMutation {
		g.mesh = ev.rng.intn(len(ev.ax.meshes))
		if len(ev.ax.types) > 0 {
			n := ev.ax.meshes[g.mesh].W * ev.ax.meshes[g.mesh].H
			types := make([]uint8, n)
			for i := range types {
				if i < len(g.types) {
					types[i] = g.types[i]
				} else {
					types[i] = uint8(ev.rng.intn(len(ev.ax.types)))
				}
			}
			g.types = types
		}
	}
	if len(ev.ax.dfs) > 1 && ev.rng.float() < axisMutation {
		g.df = ev.rng.intn(len(ev.ax.dfs))
	}
	if len(ev.ax.bws) > 1 && ev.rng.float() < axisMutation {
		g.bw = ev.rng.intn(len(ev.ax.bws))
	}
	if len(ev.ax.types) > 1 && len(g.types) > 0 {
		pm := 1.0 / float64(len(g.types))
		for i := range g.types {
			if ev.rng.float() < pm {
				g.types[i] = uint8(ev.rng.intn(len(ev.ax.types)))
			}
		}
	}
}

// selectNext is NSGA-II environmental selection: non-dominated sort of
// the combined parent+offspring pool, whole fronts admitted while they
// fit, the cut front truncated by crowding distance.
func (ev *evolver) selectNext(combined []genome) []genome {
	inds := ev.indivs(combined)
	fronts := nondominatedFronts(inds)
	p := ev.opts.Population
	next := make([]genome, 0, p)
	for _, f := range fronts {
		if len(next)+len(f) <= p {
			for _, i := range f {
				next = append(next, inds[i].g)
			}
			if len(next) == p {
				break
			}
			continue
		}
		crowd := crowdingDistances(inds, f)
		cut := append(make([]int, 0, len(f)), f...) //lint:allow hotpathalloc -- allocated for the single truncated front (the loop breaks right after); selection cost is noise next to the gated simulations
		sort.SliceStable(cut, func(a, b int) bool {
			if crowd[cut[a]] != crowd[cut[b]] {
				return crowd[cut[a]] > crowd[cut[b]]
			}
			return inds[cut[a]].name < inds[cut[b]].name
		})
		for _, i := range cut[:p-len(next)] {
			next = append(next, inds[i].g)
		}
		break
	}
	return next
}

// report assembles the final Report: every settled candidate in
// first-seen order, the realized frontier in canonical order, and the
// evolution header with the frontier's hypervolume (reference point:
// 1.05x the componentwise worst simulated objective values).
func (ev *evolver) report(space Space, seeded int) Report {
	evals := make([]Eval, 0, len(ev.order))
	for _, n := range ev.order {
		evals = append(evals, *ev.recs[n])
	}
	rep := ev.v.report(evals)
	rep.MemoHits = ev.memoHits

	var ref []float64
	for _, e := range evals {
		if e.Infeasible || e.Pruned {
			continue
		}
		v := objVec(ev.v.objectives, e.P99Ms, e.EnergyJ, e.PEs)
		if ref == nil {
			ref = append([]float64(nil), v...)
			continue
		}
		for i := range ref {
			ref[i] = max(ref[i], v[i])
		}
	}
	for i := range ref {
		ref[i] *= 1.05
	}
	pts := make([][]float64, 0, ev.v.frontier.Len())
	for _, p := range ev.v.frontier.Points() {
		pts = append(pts, p.Vec)
	}
	rep.Evolution = &Evolution{
		Generations: ev.opts.Generations,
		Population:  ev.opts.Population,
		Seed:        ev.opts.Seed,
		SpaceSize:   space.Size(),
		Seeded:      seeded,
		Hypervolume: Hypervolume(pts, ref),
	}
	return rep
}

// FrontierSignature renders a report's frontier as one canonical
// string (name@vector per point) — what the determinism tests compare
// byte-for-byte across worker counts.
func FrontierSignature(rep Report) string {
	var b strings.Builder
	for _, e := range rep.Frontier {
		fmt.Fprintf(&b, "%s@p99=%.17g,e=%.17g,pes=%d\n", e.Name, e.P99Ms, e.EnergyJ, e.PEs)
	}
	return b.String()
}
