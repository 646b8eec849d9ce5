// Package api is the unified request/response contract in front of the
// simulation engines: versioned, typed request structs with one strict
// decoding path and one resolve step per type (its checks, defaults
// and canonical form, and the work it asks for), a common RunResult
// envelope carrying timings and cache statistics, and the Service that
// executes requests against a shared sweep.Engine. The HTTP daemon
// (cmd/serve, server.go) and the one-shot CLIs (cmd/scenarios,
// cmd/sweep, cmd/pareto) both speak these types, so flag parsing,
// validation and rendering exist once instead of per command — and a
// request's canonical hash (hash.go) gives every result a stable
// content address for the server's response cache.
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/experiments"
	"mcmnpu/internal/pareto"
	"mcmnpu/internal/scenario"
)

// Version is the API contract version. It rides on every HTTP response
// (and is checked against the request's VersionHeader when sent):
// request field names, defaulting rules and response envelopes may
// only change compatibly while this string stays "v1" — see
// CONTRIBUTING.md for the evolution rules.
const Version = "v1"

// VersionHeader is the HTTP header carrying Version.
const VersionHeader = "X-Api-Version"

// Request is implemented by every request type: a stable kind tag
// (part of the result cache key), full validation, and the resolve
// step that validation, the cache key and the Service all run on.
type Request interface {
	Kind() string
	Validate() error
	// resolve runs every check of the request, in the order clients
	// see their errors, and returns the request's job.
	resolve() (job, error)
}

// job is a request resolved once: the canonical, defaulted payload and
// the seed its result key hashes, and the work the Service runs for
// it. A request that spells out a default and one that omits it
// resolve to the same payload, and so share a cache entry.
type job struct {
	kind    string
	payload any
	seed    uint64
	run     func(ctx context.Context, s *Service, emit progress) (response, error)
}

// maxFrames bounds request-level frame overrides the same way
// scenario.Spec bounds its frame budget.
const maxFrames = 1 << 20

// Decode strictly decodes JSON into req: unknown fields and trailing
// content are rejected (typos in hand-written requests fail loudly,
// exactly like scenario.ParseSpec), then req.Validate() runs. req must
// be a pointer.
func Decode(data []byte, req Request) error {
	if err := decode(data, req); err != nil {
		return err
	}
	return req.Validate()
}

// decode is Decode without the validation, for a caller that resolves
// the request itself.
func decode(data []byte, req Request) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return fmt.Errorf("api: parsing %s request: %w", req.Kind(), err)
	}
	var extra any
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		return fmt.Errorf("api: trailing content after %s request object", req.Kind())
	}
	return nil
}

// oneEntryEach rejects a list element that is blank or holds a comma:
// each element of a JSON list names exactly one entry, although the
// pareto parsers it is joined for split comma-separated lists.
func oneEntryEach(what string, list []string) error {
	for _, f := range list {
		if strings.TrimSpace(f) == "" || strings.Contains(f, ",") {
			return fmt.Errorf("api: %s list element %q must name exactly one %s", what, f, what)
		}
	}
	return nil
}

// lookup resolves registry scenario names, in order.
func lookup(names []string) ([]scenario.Spec, error) {
	specs := make([]scenario.Spec, len(names))
	for i, name := range names {
		sp, err := scenario.Lookup(name)
		if err != nil {
			return nil, err
		}
		specs[i] = sp
	}
	return specs, nil
}

// RunScenarioRequest streams one or more scenarios through the
// multi-frame runner. Exactly one of Scenarios (registry names) or
// Spec (an inline scenario spec) selects the work.
type RunScenarioRequest struct {
	// Scenarios names registry entries, run in the given order.
	Scenarios []string `json:"scenarios,omitempty"`
	// Spec is an inline scenario (defaulted and validated like a -spec
	// file).
	Spec *scenario.Spec `json:"spec,omitempty"`
	// Frames overrides every scenario's frame budget when positive.
	Frames int `json:"frames,omitempty"`
	// WindowFrames is the trace-window size (0 = the runner's default).
	WindowFrames int `json:"window_frames,omitempty"`
	// Seed overrides every scenario's trace seed when nonzero. It is an
	// explicit component of the result cache key.
	Seed uint64 `json:"seed,omitempty"`
}

// Kind implements Request.
func (r *RunScenarioRequest) Kind() string { return "run" }

// Validate implements Request: the scenario selection must resolve and
// the overrides must be in range.
func (r *RunScenarioRequest) Validate() error {
	_, err := r.resolve()
	return err
}

// resolve checks the scenario selection, then the overrides. The job's
// specs are defaulted and carry the seed and frame overrides, and its
// window is defaulted; registry scenarios run through the designs the
// Service keeps, an inline spec is prepared for the request alone.
func (r *RunScenarioRequest) resolve() (job, error) {
	if (len(r.Scenarios) == 0) == (r.Spec == nil) {
		return job{}, fmt.Errorf("api: run request needs exactly one of scenarios or spec")
	}
	var specs []scenario.Spec
	var err error
	if r.Spec != nil {
		sp := r.Spec.WithDefaults()
		specs, err = []scenario.Spec{sp}, sp.Validate()
	} else {
		specs, err = lookup(r.Scenarios)
	}
	if err != nil {
		return job{}, err
	}
	if r.Frames < 0 || r.Frames > maxFrames {
		return job{}, fmt.Errorf("api: frames %d out of range [0, %d]", r.Frames, maxFrames)
	}
	if r.WindowFrames < 0 || r.WindowFrames > maxFrames {
		return job{}, fmt.Errorf("api: window_frames %d out of range [0, %d]", r.WindowFrames, maxFrames)
	}
	for i := range specs {
		if r.Seed != 0 {
			specs[i].Seed = r.Seed
		}
		if r.Frames > 0 {
			specs[i].Frames = r.Frames
		}
	}
	window := r.WindowFrames
	if window <= 0 {
		window = scenario.DefaultWindowFrames
	}
	inline := r.Spec != nil
	opts := scenario.RunOptions{Frames: r.Frames, WindowFrames: window, Seed: r.Seed}
	return job{
		kind: r.Kind(),
		payload: struct {
			Specs        []scenario.Spec `json:"specs"`
			WindowFrames int             `json:"window_frames"`
		}{specs, window},
		seed: r.Seed,
		run: func(ctx context.Context, s *Service, _ progress) (response, error) {
			return s.runScenario(ctx, specs, inline, opts)
		},
	}, nil
}

// GridSweepRequest runs the sharded multi-scenario experiment grid.
type GridSweepRequest struct {
	// Scenarios filters the grid by name (empty = the whole grid).
	Scenarios []string `json:"scenarios,omitempty"`
	// Stream asks the server for incremental NDJSON progress (one line
	// per completed grid scenario) instead of a single response body.
	// The one-shot CLI ignores it.
	Stream bool `json:"stream,omitempty"`
}

// Kind implements Request.
func (r *GridSweepRequest) Kind() string { return "sweep" }

// Validate implements Request: every requested name must be a grid
// scenario.
func (r *GridSweepRequest) Validate() error {
	_, err := r.resolve()
	return err
}

// resolve checks each requested name against the grid. The job sweeps
// the selection in grid order (the whole grid when none is named), the
// canonical form the cache key hashes.
func (r *GridSweepRequest) resolve() (job, error) {
	have := experiments.GridScenarioNames()
	picked := make([]bool, len(have))
	for _, n := range r.Scenarios {
		i := slices.Index(have, n)
		if i < 0 {
			return job{}, fmt.Errorf("api: no scenario matches %q (have: %s)",
				n, strings.Join(have, ", "))
		}
		picked[i] = true
	}
	names := have
	if len(r.Scenarios) > 0 {
		names = nil
		for i, n := range have {
			if picked[i] {
				names = append(names, n)
			}
		}
	}
	return job{
		kind: r.Kind(),
		payload: struct {
			Scenarios []string `json:"scenarios"`
		}{names},
		run: func(ctx context.Context, s *Service, emit progress) (response, error) {
			return s.gridSweep(ctx, names, emit)
		},
	}, nil
}

// DefaultLcstrMs is the DSE latency constraint used when a request
// leaves LcstrMs at 0 (the cmd/sweep default).
const DefaultLcstrMs = 85

// DSERequest runs the Table I design-space exploration.
type DSERequest struct {
	// LcstrMs is the latency constraint in ms (0 = DefaultLcstrMs).
	LcstrMs float64 `json:"lcstr_ms,omitempty"`
}

// Kind implements Request.
func (r *DSERequest) Kind() string { return "dse" }

// Validate implements Request.
func (r *DSERequest) Validate() error {
	_, err := r.resolve()
	return err
}

// resolve checks the constraint's range (a NaN is out of it too); the
// job runs Table I under the defaulted constraint.
func (r *DSERequest) resolve() (job, error) {
	if !(r.LcstrMs >= 0 && r.LcstrMs <= 1e5) {
		return job{}, fmt.Errorf("api: lcstr_ms %v out of range [0, 1e5]", r.LcstrMs)
	}
	lcstr := r.LcstrMs
	if lcstr == 0 {
		lcstr = DefaultLcstrMs
	}
	return job{
		kind: r.Kind(),
		payload: struct {
			LcstrMs float64 `json:"lcstr_ms"`
		}{lcstr},
		run: func(ctx context.Context, s *Service, _ progress) (response, error) {
			return s.dse(ctx, lcstr)
		},
	}, nil
}

// ParetoRequest runs the multi-objective exploration.
type ParetoRequest struct {
	// Scenarios names registry entries ("all" selects the whole
	// registry). Required.
	Scenarios []string `json:"scenarios"`
	// Meshes are candidate "WxH" meshes, one per element (empty = the
	// default space).
	Meshes []string `json:"meshes,omitempty"`
	// Dataflows are candidate dataflows, "OS"/"WS" (empty = both).
	Dataflows []string `json:"dataflows,omitempty"`
	// LinkBWGBs are candidate NoP link bandwidths in GB/s (empty = the
	// package default).
	LinkBWGBs []float64 `json:"link_bw_gbs,omitempty"`
	// ChipletTypes names built-in chiplet library types (empty = the
	// homogeneous simba package). The exhaustive explorer adds one
	// uniform-type candidate per name; the evolutionary explorer
	// searches every per-chiplet assignment over them.
	ChipletTypes []string `json:"chiplet_types,omitempty"`
	// Objectives selects the frontier dimensions, one per element
	// (empty = all).
	Objectives []string `json:"objectives,omitempty"`
	// Frames / WindowFrames override the streaming runner per scenario.
	Frames       int `json:"frames,omitempty"`
	WindowFrames int `json:"window_frames,omitempty"`
	// Top ranks the frontier by objective product and renders the best
	// N rows (0 renders the whole frontier).
	Top int `json:"top,omitempty"`
	// NoPrune disables dominance-based early pruning.
	NoPrune bool `json:"no_prune,omitempty"`
	// Evolve switches from exhaustive enumeration to the bound-seeded
	// NSGA-II explorer — required for heterogeneous spaces too large to
	// enumerate. Generations, Population and Seed tune it (0 = the
	// explorer's defaults) and are rejected without Evolve.
	Evolve      bool   `json:"evolve,omitempty"`
	Generations int    `json:"generations,omitempty"`
	Population  int    `json:"population,omitempty"`
	Seed        uint64 `json:"seed,omitempty"`
}

// Kind implements Request.
func (r *ParetoRequest) Kind() string { return "pareto" }

// Validate implements Request.
func (r *ParetoRequest) Validate() error {
	_, err := r.resolve()
	return err
}

// resolve checks the scenarios, the space's axes and the objectives,
// then the run and evolution parameters. An exhaustive job's key
// hashes the enumerated candidate names, which pins mesh, dataflow and
// bandwidth defaulting. An evolve job's space cannot be enumerated (it
// may hold 10^6+ per-chiplet assignments), so its key hashes the
// defaulted axes and evolution parameters, with the RNG seed as the
// key's seed component.
func (r *ParetoRequest) resolve() (job, error) {
	if len(r.Scenarios) == 0 {
		return job{}, fmt.Errorf("api: pareto request needs at least one scenario")
	}
	var specs []scenario.Spec
	var err error
	if len(r.Scenarios) == 1 && r.Scenarios[0] == "all" {
		specs = scenario.Registry()
	} else if specs, err = lookup(r.Scenarios); err != nil {
		return job{}, err
	}
	var space pareto.Space
	if len(r.Meshes) > 0 {
		if err := oneEntryEach("mesh", r.Meshes); err != nil {
			return job{}, err
		}
		if space.Meshes, err = pareto.ParseMeshes(strings.Join(r.Meshes, ",")); err != nil {
			return job{}, err
		}
	}
	for _, df := range r.Dataflows {
		if df != "OS" && df != "WS" {
			return job{}, fmt.Errorf("api: unknown dataflow %q (want OS or WS)", df)
		}
	}
	space.Dataflows = r.Dataflows
	for _, bw := range r.LinkBWGBs {
		if !(bw > 0) || math.IsInf(bw, 1) {
			return job{}, fmt.Errorf("api: link bandwidth %g out of range", bw)
		}
	}
	space.LinkBWGBs = r.LinkBWGBs
	for _, name := range r.ChipletTypes {
		if _, err := chiplet.LookupType(name); err != nil {
			return job{}, fmt.Errorf("api: %w", err)
		}
	}
	space.Types = r.ChipletTypes
	if err := oneEntryEach("objective", r.Objectives); err != nil {
		return job{}, err
	}
	objs, err := pareto.ParseObjectives(strings.Join(r.Objectives, ","))
	if err != nil {
		return job{}, err
	}
	if r.Frames < 0 || r.Frames > maxFrames {
		return job{}, fmt.Errorf("api: frames %d out of range [0, %d]", r.Frames, maxFrames)
	}
	if r.WindowFrames < 0 || r.WindowFrames > maxFrames {
		return job{}, fmt.Errorf("api: window_frames %d out of range [0, %d]", r.WindowFrames, maxFrames)
	}
	if r.Top < 0 {
		return job{}, fmt.Errorf("api: top %d out of range", r.Top)
	}
	if !r.Evolve && (r.Generations != 0 || r.Population != 0 || r.Seed != 0) {
		return job{}, fmt.Errorf("api: generations/population/seed require evolve")
	}
	if r.Generations < 0 || r.Generations > pareto.MaxGenerations {
		return job{}, fmt.Errorf("api: generations %d out of range [0, %d]", r.Generations, pareto.MaxGenerations)
	}
	if r.Population == 1 || r.Population < 0 || r.Population > pareto.MaxPopulation {
		return job{}, fmt.Errorf("api: population %d out of range [2, %d] (0 = default)", r.Population, pareto.MaxPopulation)
	}

	opts := pareto.EvolveOptions{
		Options: pareto.Options{Scenarios: specs, Objectives: objs, Frames: r.Frames,
			WindowFrames: r.WindowFrames, NoPrune: r.NoPrune},
		Generations: r.Generations, Population: r.Population, Seed: r.Seed,
	}.WithDefaults()
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
	}
	evolve, top := r.Evolve, r.Top
	j := job{kind: r.Kind(), run: func(ctx context.Context, s *Service, _ progress) (response, error) {
		return s.explore(ctx, space, opts, evolve, top)
	}}
	if !evolve {
		cands := space.Candidates()
		candidates := make([]string, len(cands))
		for i, c := range cands {
			candidates[i] = c.Name()
		}
		j.payload = struct {
			Candidates []string `json:"candidates"`
			Scenarios  []string `json:"scenarios"`
			Objectives []string `json:"objectives"`
			Frames     int      `json:"frames"`
			Window     int      `json:"window_frames"`
			Top        int      `json:"top"`
			NoPrune    bool     `json:"no_prune"`
		}{candidates, names, objs, r.Frames, r.WindowFrames, top, r.NoPrune}
		return j, nil
	}
	d := space.WithDefaults()
	meshes := make([]string, len(d.Meshes))
	for i, m := range d.Meshes {
		meshes[i] = m.String()
	}
	j.payload = struct {
		Evolve      bool      `json:"evolve"`
		Meshes      []string  `json:"meshes"`
		Dataflows   []string  `json:"dataflows"`
		LinkBWGBs   []float64 `json:"link_bw_gbs"`
		Types       []string  `json:"types"`
		Scenarios   []string  `json:"scenarios"`
		Objectives  []string  `json:"objectives"`
		Frames      int       `json:"frames"`
		Window      int       `json:"window_frames"`
		Top         int       `json:"top"`
		NoPrune     bool      `json:"no_prune"`
		Generations int       `json:"generations"`
		Population  int       `json:"population"`
	}{true, meshes, d.Dataflows, d.LinkBWGBs, d.Types, names, objs,
		r.Frames, r.WindowFrames, top, r.NoPrune, opts.Generations, opts.Population}
	j.seed = opts.Seed
	return j, nil
}
