// Streaming multi-frame runner: a compiled scenario is scheduled once,
// then its frame budget is split into trace windows that stream through
// the event-driven simulator, fanned across a sweep.Engine worker pool
// (one worker for a serial run). Each window is an independent
// busy-period sample: its generator derives deterministically from
// (spec seed, window index) and its arrivals restart from an idle
// package, so results are bit-for-bit identical regardless of worker
// count or repetition.
package scenario

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/nop"
	"mcmnpu/internal/pipeline"
	"mcmnpu/internal/report"
	"mcmnpu/internal/sched"
	"mcmnpu/internal/sim"
	"mcmnpu/internal/sweep"
	"mcmnpu/internal/workloads"
)

// DefaultWindowFrames is a run's trace-window size when
// RunOptions.WindowFrames is not positive.
const DefaultWindowFrames = 16

// windowSeedStride decorrelates per-window trace seeds (arbitrary odd
// constant, same family as the trace package's domain separators).
const windowSeedStride = 0x9e3779b97f4a7c15

// RunOptions tunes one streaming run.
type RunOptions struct {
	// Frames overrides the spec's frame budget when positive.
	Frames int
	// WindowFrames is the trace-window size (default
	// DefaultWindowFrames; clamped to the frame budget). The window
	// split is part of the result's definition: the same (frames,
	// window) pair always aggregates the same per-window simulations.
	WindowFrames int
	// Seed overrides the spec's trace seed when nonzero. Only the
	// window generators read it, never the schedule, so one prepared
	// scenario streams any seed: a run with Seed s equals a run of the
	// spec with its Seed set to s.
	Seed uint64
	// Engine fans the windows across its worker pool and shares its
	// layer-cost cache with the scheduler; nil is the serial engine,
	// sweep.New(1). The result is bit-for-bit identical at any worker
	// count.
	Engine *sweep.Engine
}

// withEngine resolves a nil engine to the serial one.
func (o RunOptions) withEngine() RunOptions {
	if o.Engine == nil {
		o.Engine = sweep.New(1)
	}
	return o
}

// Result is one scenario's aggregated streaming metrics. The struct is
// flat and comparable: two runs of the same scenario can be asserted
// identical with ==.
type Result struct {
	Scenario   string
	Package    string
	Chiplets   int
	Dataflow   string
	Frames     int
	Windows    int
	CameraFPS  float64
	DeadlineMs float64

	// Analytic schedule metrics (layerwise pipelining).
	PipeLatMs       float64
	E2EMs           float64
	AnalyticFPS     float64
	EnergyPerFrameJ float64

	// Realized per-frame latency distribution across all windows.
	MeanLatMs float64
	P50Ms     float64
	P95Ms     float64
	P99Ms     float64
	MaxMs     float64

	// Realized throughput (frames over summed window makespans) and
	// makespan-weighted PE utilization.
	SimFPS  float64
	UtilPct float64

	// Deadline-miss accounting against DeadlineMs.
	DeadlineMisses int
	MissRatePct    float64
}

// Prepared is a design point, built once by Prepare: the defaulted
// spec, its Algorithm 1 schedule and the schedule's layerwise
// pipelining metrics (Table II's layerwise row). Callers that need only
// the analytic metrics (the pareto explorer's bound phase, the
// experiment grid) read them without streaming, and a design streamed
// later is not rebuilt. The first Run compiles the schedule's
// simulation graph and every later Run reuses it, so a design that is
// never streamed never compiles one. Run writes nothing else, so one
// Prepared may be kept and run by concurrent callers with any frames,
// window and seed (api.Service keeps one per registry scenario). Its
// fields must not be modified once it has run.
type Prepared struct {
	Spec     Spec
	Schedule *sched.Schedule
	Metrics  pipeline.Metrics

	compile  sync.Once
	graph    *sim.Graph
	graphErr error
}

// Prepare is the one compile step of a design point: it defaults and
// validates the spec, instantiates its package, builds the schedule
// with the given layer-cost cache (nil builds uncached; costs are
// value-identical either way) and computes its layerwise metrics.
func Prepare(sp Spec, cache *costmodel.Cache) (*Prepared, error) {
	return prepare(sp, cache, nil)
}

// PrepareOn is Prepare on the engine's layer-cost cache. A spec with a
// NoP override builds through the engine's plan store (sched.Plans):
// its design without the NoP is balanced once per engine, and every
// NoP variant of it runs only the half of Algorithm 1 that reads the
// NoP. The result equals Prepare's; only the cache's counters differ.
// Every other spec builds directly: a plan costs a copy per design,
// which only a NoP sweep reuses.
func PrepareOn(sp Spec, eng *sweep.Engine) (*Prepared, error) {
	return prepare(sp, eng.Cache(), eng.Plans())
}

// prepare is Prepare, through plans for a spec with a NoP override
// when plans is not nil.
func prepare(sp Spec, cache *costmodel.Cache, plans *sched.Plans) (*Prepared, error) {
	sp, m, err := sp.instantiate()
	if err != nil {
		return nil, err
	}
	p, err := compileWorkload(sp.Workload)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sp.Name, err)
	}
	// A zero tolerance is the scheduler's default.
	opts := sched.Options{Tolerance: sp.Tolerance, Cache: cache}
	var s *sched.Schedule
	if plans != nil && sp.NoP != nil {
		s, err = plans.Build(sp.chiplets(), p, m, opts)
	} else {
		s, err = sched.Build(p, m, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sp.Name, err)
	}
	return &Prepared{Spec: sp, Schedule: s, Metrics: pipeline.Compute(s, pipeline.Layerwise)}, nil
}

// Design names the design a spec builds: everything Prepare's schedule
// and metrics are a function of, namely the compiled workload, the
// package's chiplets (Spec.chiplets), the resolved tolerance (a spec's
// 0 is sched.DefaultTolerance) and the package's NoP with the spec's
// override applied (an override equal to the default names the
// default design). Specs with one Design prepare to the same schedule
// and metrics whatever their names, trace parameters and frame
// budgets, and Designs that differ only in NoP share Algorithm 1's
// NoP-free half, the plan PrepareOn keeps. Design is comparable.
type Design struct {
	workload  *workloads.Pipeline
	chiplets  string
	tolerance float64
	nop       nop.Params
}

// Design names the design the spec builds. It defaults and validates
// the spec and compiles its workload, as Prepare does, but builds no
// package, so naming a design costs a small part of preparing it.
func (s Spec) Design() (Design, error) {
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return Design{}, err
	}
	p, err := compileWorkload(s.Workload)
	if err != nil {
		return Design{}, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	// Every package buildMCM builds starts from the paper's NoP.
	d := Design{workload: p, chiplets: s.chiplets(), tolerance: s.Tolerance, nop: nop.DefaultParams()}
	if d.tolerance <= 0 {
		d.tolerance = sched.DefaultTolerance
	}
	if s.NoP != nil {
		d.nop = *s.NoP
	}
	return d, nil
}

// Run compiles the spec, builds its schedule once, and streams the frame
// budget through the simulator in trace windows.
//
//perf:hot — streams every frame window; per-window state is reused, not reallocated
func Run(ctx context.Context, sp Spec, opts RunOptions) (Result, error) {
	opts = opts.withEngine()
	p, err := Prepare(sp, opts.Engine.Cache())
	if err != nil {
		return Result{}, err
	}
	return p.Run(ctx, opts)
}

// Run streams the frame budget of a prepared scenario through the
// simulator in trace windows fanned across opts.Engine, with the trace
// seed opts.Seed overrides. The schedule is reused as built and its
// simulation graph compiled once per Prepared; opts.Engine only
// affects window dispatch here, not costs. Run is safe for concurrent
// use.
//
//perf:hot — streams every frame window; per-window state is reused, not reallocated
func (pr *Prepared) Run(ctx context.Context, opts RunOptions) (Result, error) {
	opts = opts.withEngine()
	sp, s, m := pr.Spec, pr.Schedule, pr.Metrics
	if opts.Seed != 0 {
		sp.Seed = opts.Seed // sp is this run's copy, not the kept spec
	}
	frames := sp.Frames
	if opts.Frames > 0 {
		frames = opts.Frames
	}
	win := opts.WindowFrames
	if win <= 0 {
		win = DefaultWindowFrames
	}
	if win > frames {
		win = frames
	}

	// The schedule compiles to a simulation graph once per Prepared;
	// the windows of every run share the immutable graph and only
	// instantiate per-window frame state.
	pr.compile.Do(func() { pr.graph, pr.graphErr = sim.Prepare(s) })
	if pr.graphErr != nil {
		return Result{}, fmt.Errorf("scenario %s: %w", sp.Name, pr.graphErr)
	}
	g := pr.graph

	nw := (frames + win - 1) / win
	windows := make([]sim.Result, nw)
	runWindow := func(i int) error {
		n := win
		if i == nw-1 {
			n = frames - win*(nw-1)
		}
		r, err := g.Run(n, sp.WindowGenerator(i))
		if err != nil {
			return fmt.Errorf("scenario %s window %d: %w", sp.Name, i, err)
		}
		windows[i] = r
		return nil
	}
	if err := opts.Engine.Each(ctx, nw, runWindow); err != nil {
		return Result{}, err
	}

	r := Result{
		Scenario:   sp.Name,
		Package:    s.MCM.Name,
		Chiplets:   s.MCM.Chiplets(),
		Dataflow:   sp.Dataflow,
		Frames:     frames,
		Windows:    nw,
		CameraFPS:  sp.CameraFPS,
		DeadlineMs: sp.DeadlineMs,

		PipeLatMs:       m.PipeLatMs,
		E2EMs:           m.E2EMs,
		AnalyticFPS:     m.FPS,
		EnergyPerFrameJ: m.EnergyJ,
	}

	// Aggregate in window order: float accumulation order is part of the
	// determinism contract.
	latencies := make([]float64, 0, frames)
	var latSum, makespanSum, utilWeighted float64
	for _, w := range windows {
		latencies = append(latencies, w.FrameLatenciesMs...)
		makespanSum += w.MakespanMs
		utilWeighted += w.UtilPct * w.MakespanMs
	}
	for _, l := range latencies {
		latSum += l
		if l > sp.DeadlineMs {
			r.DeadlineMisses++
		}
	}
	r.MeanLatMs = latSum / float64(len(latencies))
	r.MissRatePct = float64(r.DeadlineMisses) / float64(len(latencies)) * 100
	if makespanSum > 0 {
		r.SimFPS = float64(frames) / makespanSum * 1e3
		r.UtilPct = utilWeighted / makespanSum
	}

	sort.Float64s(latencies)
	r.P50Ms = percentile(latencies, 0.50)
	r.P95Ms = percentile(latencies, 0.95)
	r.P99Ms = percentile(latencies, 0.99)
	r.MaxMs = latencies[len(latencies)-1]
	return r, nil
}

// workloadMemoCap bounds the compiled-pipeline memo. The registry plus
// any realistic sweep reuses a handful of workload configurations;
// the cap only exists so a fuzzer or a long-lived server feeding
// unique inline specs cannot grow the map without bound (overflow
// compiles uncached, identical output either way). Every overflow
// compile builds fresh layers, so the cap bounds memory only because
// the engine's cost cache bounds the layer pointers it interns.
const workloadMemoCap = 256

// workloadMemo caches workloads.Perception output per workload
// configuration. Compilation is deterministic and a compiled
// *Pipeline is immutable (sched.Build shares its node slices
// read-only), so every schedule build of the same workload — the
// evolve loop's common case, where one scenario is re-evaluated under
// hundreds of package candidates — can share one compiled pipeline.
// First store wins: concurrent compilers of the same config converge
// on one canonical pointer, which also keeps the cost cache's
// pointer-keyed layer interning compact.
var workloadMemo = struct {
	sync.Mutex
	m map[workloads.Config]*workloads.Pipeline
}{m: make(map[workloads.Config]*workloads.Pipeline)}

// compileWorkload returns the memoized compilation of cfg. Errors are
// not cached (they carry no reusable artifact and are outside every
// hot path).
func compileWorkload(cfg workloads.Config) (*workloads.Pipeline, error) {
	workloadMemo.Lock()
	p, ok := workloadMemo.m[cfg]
	workloadMemo.Unlock()
	if ok {
		return p, nil
	}
	p, err := workloads.Perception(cfg)
	if err != nil {
		return nil, err
	}
	workloadMemo.Lock()
	defer workloadMemo.Unlock()
	if prev, ok := workloadMemo.m[cfg]; ok {
		return prev, nil
	}
	if len(workloadMemo.m) < workloadMemoCap {
		workloadMemo.m[cfg] = p
	}
	return p, nil
}

// percentile returns the nearest-rank percentile of a sorted sample
// (q in (0,1]).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// ResultsTable renders results as one summary row per scenario.
func ResultsTable(rs []Result) *report.Table {
	t := report.NewTable("Scenario library — streaming multi-frame runner",
		"Scenario", "Package", "Frames", "Pipe(ms)", "E2E(ms)", "Mean(ms)",
		"p50(ms)", "p95(ms)", "p99(ms)", "Max(ms)", "Sim FPS", "Util(%)",
		"E/frame(J)", "Deadline(ms)", "Miss", "Miss(%)")
	for _, r := range rs {
		t.AddRow(r.Scenario, r.Package, r.Frames, r.PipeLatMs, r.E2EMs, r.MeanLatMs,
			r.P50Ms, r.P95Ms, r.P99Ms, r.MaxMs, r.SimFPS, r.UtilPct,
			r.EnergyPerFrameJ, r.DeadlineMs, r.DeadlineMisses, r.MissRatePct)
	}
	return t
}

// ListTable renders the scenario library listing.
func ListTable(specs []Spec) *report.Table {
	t := report.NewTable("Scenario library",
		"Scenario", "Cameras", "Input", "Package", "Dataflow", "Cam FPS",
		"Frames", "Deadline(ms)", "Description")
	for _, s := range specs {
		s = s.WithDefaults()
		t.AddRow(s.Name, s.Workload.Cameras,
			fmt.Sprintf("%dx%d", s.Workload.InputW, s.Workload.InputH),
			s.Package, s.Dataflow, s.CameraFPS, s.Frames, s.DeadlineMs, s.Description)
	}
	return t
}
