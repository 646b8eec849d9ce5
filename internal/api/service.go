// The Service runs the jobs api requests resolve to against the
// simulation engines and wraps every outcome in the RunResult envelope,
// which carries the request's cache key. It is the single execution
// path behind both the HTTP daemon and the one-shot CLIs: a server
// holds one Service for its whole lifetime (keeping the interned cost
// tables, the engine's layer-cost cache, the scored Table I space and
// the registry scenarios' prepared designs warm across requests), while
// a CLI builds one per invocation.
package api

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"mcmnpu/internal/dse"
	"mcmnpu/internal/experiments"
	"mcmnpu/internal/pareto"
	"mcmnpu/internal/report"
	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sweep"
	"mcmnpu/internal/workloads"
)

// Timings is the envelope's service-time breakdown.
type Timings struct {
	// ComputeMs is the wall time spent executing the request, after
	// its key is made (cache hits on the server skip compute entirely
	// and replay the original envelope, timings included).
	ComputeMs float64 `json:"compute_ms"`
}

// CacheCounters reports the engine's layer-cost cache at response
// time.
type CacheCounters struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// RunResult is the common response envelope: contract version, request
// kind, the result's content address, timings, and cost-cache
// statistics. Every typed response embeds it.
type RunResult struct {
	Version   string        `json:"version"`
	Kind      string        `json:"kind"`
	Key       string        `json:"key"`
	Timings   Timings       `json:"timings"`
	CostCache CacheCounters `json:"cost_cache"`
}

// response is implemented by every typed response through its
// embedded RunResult, the envelope the Service fills in once a job's
// work is done.
type response interface{ head() *RunResult }

func (r *RunResult) head() *RunResult { return r }

// progress receives each grid scenario of a streamed sweep as it
// completes.
type progress func(GridScenarioResult) error

// RunScenarioResponse carries the streaming runner's per-scenario
// results.
type RunScenarioResponse struct {
	RunResult
	Results []scenario.Result `json:"results"`
}

// Table implements report.Doc with the standard scenario results
// table.
func (r *RunScenarioResponse) Table() *report.Table {
	return scenario.ResultsTable(r.Results)
}

// RenderJSON implements report.JSONer with the table's compact JSON —
// the cmd/scenarios machine-readable format.
func (r *RunScenarioResponse) RenderJSON() ([]byte, error) {
	return []byte(r.Table().JSON()), nil
}

// GridScenarioResult is one grid scenario's outcome in a
// GridSweepResponse. It renders itself as a report.Doc, so a grid
// response emits one table per scenario.
type GridScenarioResult struct {
	Scenario  string        `json:"scenario"`
	TableData *report.Table `json:"table,omitempty"`
	WorkMs    float64       `json:"work_ms"`
	Err       string        `json:"error,omitempty"`
}

// Table implements report.Doc.
func (g GridScenarioResult) Table() *report.Table { return g.TableData }

// RenderJSON implements report.JSONer with the table's compact JSON —
// the cmd/sweep machine-readable format.
func (g GridScenarioResult) RenderJSON() ([]byte, error) {
	return []byte(g.TableData.JSON()), nil
}

// TextFooter implements report.Footer with the per-scenario work-time
// line cmd/sweep prints under each table.
func (g GridScenarioResult) TextFooter() string {
	return fmt.Sprintf("(scenario %s: %.1f ms work)\n\n", g.Scenario, g.WorkMs)
}

// GridSweepResponse carries every selected grid scenario's outcome, in
// grid order. Scenario failures are recorded per entry, not as a
// request failure.
type GridSweepResponse struct {
	RunResult
	Results []GridScenarioResult `json:"results"`
}

// Failed reports how many grid scenarios errored.
func (r *GridSweepResponse) Failed() int {
	n := 0
	for _, g := range r.Results {
		if g.Err != "" {
			n++
		}
	}
	return n
}

// DSEResponse carries the Table I exploration.
type DSEResponse struct {
	RunResult
	LcstrMs float64 `json:"lcstr_ms"`
	// Workers reports the engine's worker count. Table I itself is a
	// serial scan; the field and its text footer stay for v1
	// compatibility.
	Workers   int           `json:"workers"`
	TableData *report.Table `json:"table"`
}

// Table implements report.Doc.
func (r *DSEResponse) Table() *report.Table { return r.TableData }

// RenderJSON implements report.JSONer with the table's compact JSON —
// the cmd/sweep machine-readable format.
func (r *DSEResponse) RenderJSON() ([]byte, error) {
	return []byte(r.TableData.JSON()), nil
}

// TextFooter implements report.Footer with the workers/elapsed line
// cmd/sweep prints under the DSE table.
func (r *DSEResponse) TextFooter() string {
	d := time.Duration(r.Timings.ComputeMs * float64(time.Millisecond)).Round(time.Millisecond)
	return fmt.Sprintf("(%d workers, %s)\n\n", r.Workers, d)
}

// ParetoResponse carries the frontier report plus the requested
// ranking depth.
type ParetoResponse struct {
	RunResult
	Top    int           `json:"top"`
	Report pareto.Report `json:"report"`
}

// Table implements report.Doc: the ranked top-N table when the request
// asked for one, the full frontier otherwise.
func (r *ParetoResponse) Table() *report.Table {
	if r.Top > 0 {
		return pareto.TopTable(r.Report, r.Top)
	}
	return pareto.FrontierTable(r.Report)
}

// RenderJSON implements report.JSONer with the indented frontier
// report — the cmd/pareto machine-readable format.
func (r *ParetoResponse) RenderJSON() ([]byte, error) {
	return json.MarshalIndent(r.Report, "", "  ")
}

// TextFooter implements report.Footer with cmd/pareto's summary line:
// how many candidates were touched and how each was settled — full
// streaming simulation, bound-based prune, memo absorption, or
// infeasibility.
func (r *ParetoResponse) TextFooter() string {
	rep := r.Report
	return fmt.Sprintf("%d candidates: %d simulated, %d bound-pruned, %d memo-hit, %d infeasible; frontier size %d\n",
		len(rep.Evals), rep.Evaluated, rep.Pruned, rep.MemoHits, rep.Infeasible, len(rep.Frontier))
}

// Service executes api requests. Its engine fans work across a pool
// and memoizes layer costs in its cache across requests. It also keeps
// two kinds of designs, each built on the engine's cache by the first
// request that needs it, so their cost does not recur per request:
//
//   - the Table I exploration space, built by the first DSE request:
//     every DSE request explores a WithLcstr view of that one space, so
//     each pin's candidates are scored once per Service. The space is
//     one cost table and at most one score per candidate mask and pin.
//   - one prepared design (compiled spec, Algorithm 1 schedule and,
//     after its first run, the simulation graph) per registry
//     scenario, built by the first run request naming it: a schedule
//     does not depend on the seed, frames or window a request varies,
//     so every later run of the scenario streams through the kept
//     design. Inline specs are prepared per request.
//
// Neither grows with the number of requests: the Service holds at most
// one design per registry scenario. Its engine also keeps up to
// sched.MaxPlans scheduler plans for the Service's whole life, so an
// inline spec or a pareto candidate with a NoP override reruns only
// the NoP-reading half of Algorithm 1 once its design has been
// balanced under another NoP.
type Service struct {
	engine  *sweep.Engine
	version string

	tableIOnce sync.Once
	tableI     *dse.Space

	// designs holds one entry per registry scenario, made by
	// NewService; the map itself is never written afterwards.
	designs map[string]*keptDesign
}

// keptDesign is a registry scenario's prepared design, built from its
// registry spec once, by the scenario's first run request.
type keptDesign struct {
	spec scenario.Spec
	once sync.Once
	prep *scenario.Prepared
	err  error
}

// NewService wraps an engine (nil = sweep.New(1), a serial run) under
// the current build version.
func NewService(e *sweep.Engine) *Service {
	if e == nil {
		e = sweep.New(1)
	}
	reg := scenario.Registry()
	designs := make(map[string]*keptDesign, len(reg))
	for _, sp := range reg {
		designs[sp.Name] = &keptDesign{spec: sp}
	}
	return &Service{engine: e, version: BuildVersion(), designs: designs}
}

// Engine returns the service's engine.
func (s *Service) Engine() *sweep.Engine { return s.engine }

// Key returns req's result-cache content address under the service's
// build version.
func (s *Service) Key(req Request) (string, error) {
	return RequestKey(req, s.version)
}

// call is every direct Service call: req is resolved and keyed once,
// and its job runs under that key.
func call[T response](ctx context.Context, s *Service, req Request) (T, error) {
	var zero T
	j, key, err := resolveKey(req, s.version)
	if err != nil {
		return zero, err
	}
	resp, err := s.do(ctx, j, key, nil)
	if err != nil {
		return zero, err
	}
	return resp.(T), nil
}

// do runs a resolved job and fills in its response's envelope, which
// carries key, the key the job's result is cached under. The clock
// starts after the key is made, so compute_ms times the work alone.
func (s *Service) do(ctx context.Context, j job, key string, emit progress) (response, error) {
	start := time.Now()
	resp, err := j.run(ctx, s, emit)
	if err != nil {
		return nil, err
	}
	st := s.engine.Cache().Stats()
	*resp.head() = RunResult{
		Version:   Version,
		Kind:      j.kind,
		Key:       key,
		Timings:   Timings{ComputeMs: float64(time.Since(start).Microseconds()) / 1e3},
		CostCache: CacheCounters{Hits: st.Hits, Misses: st.Misses, Entries: st.Entries},
	}
	return resp, nil
}

// RunScenario streams the request's scenarios, in order, through the
// multi-frame runner with the request's frames, window and seed. A
// registry scenario streams through the design the Service keeps for
// it; an inline spec is prepared for this request alone. The first
// failure aborts the request.
func (s *Service) RunScenario(ctx context.Context, req *RunScenarioRequest) (*RunScenarioResponse, error) {
	return call[*RunScenarioResponse](ctx, s, req)
}

// runScenario is a run job's work.
func (s *Service) runScenario(ctx context.Context, specs []scenario.Spec, inline bool, opts scenario.RunOptions) (response, error) {
	opts.Engine = s.engine
	results := make([]scenario.Result, 0, len(specs))
	for _, sp := range specs {
		var p *scenario.Prepared
		var err error
		if inline {
			p, err = scenario.PrepareOn(sp, s.engine)
		} else {
			p, err = s.kept(sp.Name)
		}
		if err != nil {
			return nil, err
		}
		r, err := p.Run(ctx, opts)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return &RunScenarioResponse{Results: results}, nil
}

// kept returns the design the Service keeps for the named registry
// scenario, preparing it from the registry spec (with the registry's
// seed; each run brings the request's) on the first call for that
// name. Concurrent first calls prepare it once.
func (s *Service) kept(name string) (*scenario.Prepared, error) {
	d, ok := s.designs[name]
	if !ok {
		return nil, fmt.Errorf("api: no registry scenario %q", name)
	}
	d.once.Do(func() { d.prep, d.err = scenario.PrepareOn(d.spec, s.engine) })
	return d.prep, d.err
}

// GridSweep runs the sharded experiment grid.
func (s *Service) GridSweep(ctx context.Context, req *GridSweepRequest) (*GridSweepResponse, error) {
	return call[*GridSweepResponse](ctx, s, req)
}

// gridSweep is a sweep job's work over the named grid scenarios, in
// grid order; a nil emit runs them as one batch.
func (s *Service) gridSweep(ctx context.Context, names []string, emit progress) (response, error) {
	selected := experiments.SelectGrid(s.engine, names...)
	cfg := workloads.DefaultConfig()
	var results []GridScenarioResult
	if emit == nil {
		for _, r := range s.engine.RunGridSharded(ctx, cfg, selected) {
			results = append(results, toGridResult(r))
		}
	} else {
		for i := range selected {
			rs := s.engine.RunGridSharded(ctx, cfg, selected[i:i+1])
			g := toGridResult(rs[0])
			results = append(results, g)
			if err := emit(g); err != nil {
				return nil, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	return &GridSweepResponse{Results: results}, nil
}

func toGridResult(r sweep.GridResult) GridScenarioResult {
	g := GridScenarioResult{Scenario: r.Scenario, TableData: r.Table, WorkMs: r.ElapsedMs}
	if r.Err != nil {
		g.Err = r.Err.Error()
		g.TableData = nil
	}
	return g
}

// DSE runs the Table I design-space exploration under the request's
// latency constraint, on the service's Table I space.
func (s *Service) DSE(ctx context.Context, req *DSERequest) (*DSEResponse, error) {
	return call[*DSEResponse](ctx, s, req)
}

// dse is a DSE job's work under the defaulted constraint lcstr.
func (s *Service) dse(ctx context.Context, lcstr float64) (response, error) {
	s.tableIOnce.Do(func() {
		s.tableI = experiments.TableISpace(s.engine, workloads.DefaultConfig(), DefaultLcstrMs)
	})
	res, err := experiments.TableIOn(ctx, s.tableI.WithLcstr(lcstr))
	if err != nil {
		return nil, err
	}
	return &DSEResponse{LcstrMs: lcstr, Workers: s.engine.Workers(), TableData: res.Table()}, nil
}

// Pareto runs the multi-objective exploration: exhaustive enumeration
// by default, the bound-seeded evolutionary explorer when the request
// asks for it (the only way to search a heterogeneous per-chiplet
// space, which is far too large to enumerate).
func (s *Service) Pareto(ctx context.Context, req *ParetoRequest) (*ParetoResponse, error) {
	return call[*ParetoResponse](ctx, s, req)
}

// explore is a pareto job's work; opts carries no engine until here.
func (s *Service) explore(ctx context.Context, space pareto.Space, opts pareto.EvolveOptions, evolve bool, top int) (response, error) {
	opts.Engine = s.engine
	var rep pareto.Report
	var err error
	if evolve {
		rep, err = pareto.Evolve(ctx, space, opts)
	} else {
		rep, err = pareto.Explore(ctx, space, opts.Options)
	}
	if err != nil {
		return nil, err
	}
	return &ParetoResponse{Top: top, Report: rep}, nil
}
