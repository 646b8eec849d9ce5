// The explorer: candidate enumeration over (mesh, dataflow, NoP
// bandwidth), a two-phase evaluation — cheap analytic lower bounds for
// every candidate x scenario pair fanned across the sweep.Engine worker
// pool, then full streaming runs for the survivors of dominance-based
// pruning — and the report the CLI and experiments layers render.
//
// Determinism contract: the frontier is bit-for-bit identical across
// worker counts and repetitions. The parallel phases write results by
// index (no reduction order), and every pruning/insertion decision
// happens in one serial loop over a deterministically sorted candidate
// order, so parallelism never changes which candidates are pruned or
// what the frontier contains.
package pareto

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/nop"
	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sweep"
)

// lbSafety discounts the analytic latency bound in the pruning
// comparison. The layerwise E2E latency and the event-driven
// simulator's realized frame latency agree closely but not exactly —
// stage-boundary transfers overlap differently, and the sim has been
// observed to come in a few per-mille *under* the analytic E2E (e.g.
// 460.4 ms realized vs 460.7 ms analytic on the 8x8/OS urban point).
// A 2% haircut gives ~30x headroom over the observed skew while
// keeping pruning effective; TestLowerBoundSound locks the discounted
// bound over the whole default space.
const lbSafety = 0.98

// Objective keys, in canonical order: realized p99 frame latency (ms),
// per-frame energy (J), and total PE count (the package-area proxy).
const (
	ObjP99    = "p99"
	ObjEnergy = "energy"
	ObjPEs    = "pes"
)

// AllObjectives is the canonical objective order. Selected subsets keep
// this order regardless of how the user spelled them.
var AllObjectives = []string{ObjP99, ObjEnergy, ObjPEs}

// ParseObjectives parses a comma-separated objective list ("p99,pes")
// into canonical order. Empty input selects all objectives.
func ParseObjectives(csv string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return append([]string(nil), AllObjectives...), nil
	}
	want := map[string]bool{}
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		switch f {
		case ObjP99, ObjEnergy, ObjPEs:
			want[f] = true
		case "":
		default:
			return nil, fmt.Errorf("pareto: unknown objective %q (have: %s)",
				f, strings.Join(AllObjectives, ", "))
		}
	}
	var out []string
	for _, o := range AllObjectives {
		if want[o] {
			out = append(out, o)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("pareto: no objectives selected")
	}
	return out, nil
}

// MeshDim is a candidate package mesh of W x H 256-PE Simba chiplets.
type MeshDim struct {
	W, H int
}

func (m MeshDim) String() string { return fmt.Sprintf("%dx%d", m.W, m.H) }

// ParseMeshes parses a comma-separated "WxH" list: each entry is two
// positive decimal numbers joined by x, with surrounding spaces
// trimmed; empty entries are skipped.
func ParseMeshes(csv string) ([]MeshDim, error) {
	var out []MeshDim
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		// Atoi accepts a sign; a mesh dimension is digits only.
		ws, hs, _ := strings.Cut(f, "x")
		w, werr := strconv.Atoi(ws)
		h, herr := strconv.Atoi(hs)
		if werr != nil || herr != nil || w < 1 || h < 1 || strings.Contains(f, "+") {
			return nil, fmt.Errorf("pareto: malformed mesh %q (want WxH)", f)
		}
		out = append(out, MeshDim{W: w, H: h})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("pareto: empty mesh list")
	}
	return out, nil
}

// Candidate is one point of the design space: a mesh of chiplets, a
// package-wide dataflow, optionally a NoP link-bandwidth override (0
// keeps the package default), and optionally a chiplet-type assignment
// from the built-in library — nil for the homogeneous simba default, a
// single name for a uniform type, or one run-length-compressed entry
// set covering the whole mesh row-major (chiplet.ExpandTypes syntax).
type Candidate struct {
	Mesh      MeshDim
	Dataflow  string
	LinkBWGBs float64
	Types     []string `json:"types,omitempty"`
}

// Name is the candidate's unique, stable identifier ("6x6/OS",
// "8x8/WS/bw200", "4x4/OS/t=eco*3,simba*13").
func (c Candidate) Name() string {
	n := fmt.Sprintf("%s/%s", c.Mesh, c.Dataflow)
	if c.LinkBWGBs > 0 {
		n += fmt.Sprintf("/bw%g", c.LinkBWGBs)
	}
	if len(c.Types) > 0 {
		n += "/t=" + strings.Join(c.Types, ",")
	}
	return n
}

// Apply overlays the candidate's package configuration on a scenario
// spec: the scenario keeps its workload, trace model and deadline while
// the package under it becomes the candidate's.
func (c Candidate) Apply(sp scenario.Spec) scenario.Spec {
	sp.Package = fmt.Sprintf("mesh:%dx%d", c.Mesh.W, c.Mesh.H)
	sp.Dataflow = c.Dataflow
	sp.ChipletTypes = c.Types
	if c.LinkBWGBs > 0 {
		p := nop.DefaultParams()
		if sp.NoP != nil {
			p = *sp.NoP
		}
		p.LinkBWGBs = c.LinkBWGBs
		sp.NoP = &p
	}
	return sp
}

// Space is the candidate cross product. Zero-valued fields fall back to
// the defaults (DefaultSpace) at enumeration time. Types, when set,
// adds the heterogeneous chiplet-type axis: Candidates() enumerates
// only the uniform-type corners (the exhaustive explorer's grid), while
// the evolutionary explorer searches the full per-chiplet assignment
// space — Size() counts it — and EnumerateTyped expands it completely
// for oracle tests on small meshes.
type Space struct {
	Meshes    []MeshDim
	Dataflows []string  // "OS" / "WS"
	LinkBWGBs []float64 // 0 entries keep the package-default bandwidth
	Types     []string  // chiplet library type names (empty = homogeneous simba)
}

// DefaultSpace brackets the paper's 6x6/OS operating point: meshes from
// a quarter package to the dual-NPU arrangement, both dataflows, and
// the default interconnect.
func DefaultSpace() Space {
	return Space{
		Meshes:    []MeshDim{{4, 4}, {6, 6}, {8, 8}, {12, 6}},
		Dataflows: []string{"OS", "WS"},
		LinkBWGBs: []float64{0},
	}
}

// WithDefaults returns the space with empty axes replaced by
// DefaultSpace's and duplicate axis values collapsed (order-preserving)
// — the canonical axes every enumeration, genome encoding and request
// hash works from. The Types axis has no default: empty means the
// homogeneous space.
func (s Space) WithDefaults() Space {
	d := DefaultSpace()
	if len(s.Meshes) == 0 {
		s.Meshes = d.Meshes
	}
	if len(s.Dataflows) == 0 {
		s.Dataflows = d.Dataflows
	}
	if len(s.LinkBWGBs) == 0 {
		s.LinkBWGBs = d.LinkBWGBs
	}
	out := Space{}
	seenM := map[MeshDim]bool{}
	for _, m := range s.Meshes {
		if !seenM[m] {
			seenM[m] = true
			out.Meshes = append(out.Meshes, m)
		}
	}
	seenD := map[string]bool{}
	for _, df := range s.Dataflows {
		if !seenD[df] {
			seenD[df] = true
			out.Dataflows = append(out.Dataflows, df)
		}
	}
	seenB := map[float64]bool{}
	for _, bw := range s.LinkBWGBs {
		if !seenB[bw] {
			seenB[bw] = true
			out.LinkBWGBs = append(out.LinkBWGBs, bw)
		}
	}
	seenT := map[string]bool{}
	for _, t := range s.Types {
		if !seenT[t] {
			seenT[t] = true
			out.Types = append(out.Types, t)
		}
	}
	return out
}

// Candidates enumerates the grid corners in deterministic order
// (mesh-major, then dataflow, then bandwidth, then uniform type).
// Duplicate axis values (e.g. "-meshes 6x6,6x6") collapse to one
// candidate — names are unique, so a duplicate would otherwise be
// evaluated twice and render twice in the frontier. With a Types axis
// each corner carries one uniform type; mixed assignments are the
// evolutionary explorer's territory.
func (s Space) Candidates() []Candidate {
	s = s.WithDefaults()
	types := [][]string{nil}
	if len(s.Types) > 0 {
		types = types[:0]
		for _, t := range s.Types {
			types = append(types, []string{t})
		}
	}
	out := make([]Candidate, 0, len(s.Meshes)*len(s.Dataflows)*len(s.LinkBWGBs)*len(types))
	for _, m := range s.Meshes {
		for _, df := range s.Dataflows {
			for _, bw := range s.LinkBWGBs {
				for _, ts := range types {
					out = append(out, Candidate{Mesh: m, Dataflow: df, LinkBWGBs: bw, Types: ts})
				}
			}
		}
	}
	return out
}

// Size counts the full design space including every per-chiplet type
// assignment — |types|^(W*H) per mesh — as a float64, since
// heterogeneous spaces overflow int64 long before they trouble a
// float's exponent.
func (s Space) Size() float64 {
	s = s.WithDefaults()
	perMesh := float64(len(s.Dataflows) * len(s.LinkBWGBs))
	var total float64
	for _, m := range s.Meshes {
		if len(s.Types) == 0 {
			total += perMesh
			continue
		}
		total += perMesh * math.Pow(float64(len(s.Types)), float64(m.W*m.H))
	}
	return total
}

// EnumerateTyped expands the complete space — every per-chiplet type
// assignment of every mesh — in deterministic order, erroring when the
// space exceeds limit. It exists for the oracle property tests that
// brute-force small heterogeneous spaces; production searches go
// through Evolve.
func (s Space) EnumerateTyped(limit int) ([]Candidate, error) {
	s = s.WithDefaults()
	if size := s.Size(); size > float64(limit) {
		return nil, fmt.Errorf("pareto: space holds %g candidates (limit %d)", size, limit)
	}
	if len(s.Types) == 0 {
		return s.Candidates(), nil
	}
	var out []Candidate
	for _, m := range s.Meshes {
		n := m.W * m.H
		assign := make([]int, n)
		for {
			names := make([]string, n)
			for i, ti := range assign {
				names[i] = s.Types[ti]
			}
			for _, df := range s.Dataflows {
				for _, bw := range s.LinkBWGBs {
					out = append(out, Candidate{Mesh: m, Dataflow: df, LinkBWGBs: bw,
						Types: chiplet.CompressTypes(names)})
				}
			}
			// Odometer increment over the per-chiplet type digits.
			i := n - 1
			for ; i >= 0; i-- {
				assign[i]++
				if assign[i] < len(s.Types) {
					break
				}
				assign[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
	return out, nil
}

// Eval is one candidate's evaluation record. Lower bounds are analytic
// (one schedule + pipeline metrics per scenario); realized metrics come
// from the streaming runner and are zero for pruned or infeasible
// candidates.
type Eval struct {
	Candidate Candidate `json:"candidate"`
	Name      string    `json:"name"`
	Chiplets  int       `json:"chiplets"`
	PEs       int64     `json:"pes"`

	// Analytic lower bounds, worst case across the selected scenarios:
	// LBLatMs is the layerwise end-to-end latency (pruning discounts it
	// by lbSafety before comparing against realized p99 points),
	// LBEnergyJ the analytic per-frame energy (exact by construction —
	// the runner reports the same computation).
	LBLatMs   float64 `json:"lb_lat_ms"`
	LBEnergyJ float64 `json:"lb_energy_j"`

	// Realized streaming metrics, worst case across scenarios.
	P99Ms   float64 `json:"p99_ms"`
	EnergyJ float64 `json:"energy_j"`

	Pruned     bool   `json:"pruned"`
	Infeasible bool   `json:"infeasible"`
	Reason     string `json:"reason,omitempty"`
	OnFrontier bool   `json:"on_frontier"`
}

// Options tunes one exploration.
type Options struct {
	// Scenarios are the registry (or custom) specs each candidate is
	// evaluated against; at least one is required. Objectives aggregate
	// worst-case across scenarios, so the frontier is robust over the
	// whole selected set.
	Scenarios []scenario.Spec
	// Objectives selects and orders the frontier dimensions (default
	// AllObjectives).
	Objectives []string
	// Frames / WindowFrames override the streaming runner per scenario
	// (0 keeps each spec's defaults).
	Frames       int
	WindowFrames int
	// Engine fans the lower-bound phase across its worker pool and
	// streams full-run trace windows through it; nil is the serial
	// engine, sweep.New(1). The report is bit-for-bit identical at any
	// worker count.
	Engine *sweep.Engine
	// NoPrune disables dominance-based early pruning, forcing a full
	// streaming run for every feasible candidate.
	NoPrune bool
}

// Report is one exploration's full outcome. Evals lists every candidate
// in enumeration order (first-seen order for the evolutionary
// explorer); Frontier lists the non-dominated subset in the frontier's
// canonical order. The report marshals to deterministic JSON — the
// CLI's serial-vs-pool equivalence is asserted on those bytes.
//
// Evaluated counts candidates that ran the full streaming simulation;
// Pruned counts candidates skipped because their discounted analytic
// bound was already dominated; MemoHits counts genome re-encounters
// the content-keyed memo absorbed without any work (always 0 for the
// exhaustive explorer, whose enumeration never repeats a candidate).
type Report struct {
	Objectives []string   `json:"objectives"`
	Scenarios  []string   `json:"scenarios"`
	Evals      []Eval     `json:"evals"`
	Frontier   []Eval     `json:"frontier"`
	Evaluated  int        `json:"evaluated"`
	Pruned     int        `json:"pruned"`
	Infeasible int        `json:"infeasible"`
	MemoHits   int        `json:"memo_hits,omitempty"`
	Evolution  *Evolution `json:"evolution,omitempty"`
}

// Evolution records the evolutionary explorer's run parameters and
// headline statistics; nil on exhaustive reports.
type Evolution struct {
	Generations int     `json:"generations"`
	Population  int     `json:"population"`
	Seed        uint64  `json:"seed"`
	SpaceSize   float64 `json:"space_size"`
	Seeded      int     `json:"seeded"` // gen-0 individuals taken from the bound frontier
	Hypervolume float64 `json:"hypervolume"`
}

// Explore evaluates the space against the scenarios and returns the
// frontier report: phase 1 bounds every candidate x scenario pair
// across the engine, phase 2 prunes or streams each candidate in
// ascending bound order (see evaluator).
//
//perf:hot — evaluates the whole candidate x scenario product; both phases loop at scale
func Explore(ctx context.Context, space Space, opts Options) (Report, error) {
	return ExploreCandidates(ctx, space.Candidates(), opts)
}

// resolveObjectives validates opts and returns the canonical objective
// selection.
func resolveObjectives(opts Options) ([]string, error) {
	if len(opts.Scenarios) == 0 {
		return nil, fmt.Errorf("pareto: no scenarios selected")
	}
	objectives := opts.Objectives
	if len(objectives) == 0 {
		objectives = append([]string(nil), AllObjectives...)
	}
	for _, o := range objectives {
		switch o {
		case ObjP99, ObjEnergy, ObjPEs:
		default:
			return nil, fmt.Errorf("pareto: unknown objective %q", o)
		}
	}
	return objectives, nil
}

// ExploreCandidates runs the exhaustive two-phase evaluation over an
// explicit candidate list (duplicate names collapse to one candidate):
// one bound-and-settle batch over every candidate, reported in
// enumeration order. Explore is this over Space.Candidates(); the
// oracle property tests call it directly with EnumerateTyped output to
// brute-force small heterogeneous spaces.
//
//perf:hot — evaluates the whole candidate x scenario product; both phases loop at scale
func ExploreCandidates(ctx context.Context, cands []Candidate, opts Options) (Report, error) {
	v, err := newEvaluator(opts)
	if err != nil {
		return Report{}, err
	}
	uniq := make([]Candidate, 0, len(cands))
	seen := map[string]bool{}
	for _, c := range cands {
		if n := c.Name(); !seen[n] {
			seen[n] = true
			uniq = append(uniq, c)
		}
	}
	if err := v.bound(ctx, uniq); err != nil {
		return Report{}, err
	}
	evals, _, err := v.settle(ctx, uniq)
	if err != nil {
		return Report{}, err
	}
	return v.report(evals), nil
}

// objVec assembles the objective vector in the selected canonical
// order.
func objVec(objectives []string, latMs, energyJ float64, pes int64) []float64 {
	out := make([]float64, 0, len(objectives))
	for _, o := range objectives {
		switch o {
		case ObjP99:
			out = append(out, latMs)
		case ObjEnergy:
			out = append(out, energyJ)
		case ObjPEs:
			out = append(out, float64(pes))
		}
	}
	return out
}
