package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mcmnpu/internal/api"
	"mcmnpu/internal/experiments"
	"mcmnpu/internal/pareto"
	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sweep"
	"mcmnpu/internal/workloads"
)

// workload is one benchmark traffic shape. A pass calls start (set-up
// plus the untimed warm-up op), run, then stop.
type workload interface {
	// start builds the pass's long-lived state and runs the warm-up op,
	// returning the warm-up result's digest.
	start(ctx context.Context, env *passEnv) (string, error)
	// run executes ops from index 0 until lim says stop.
	run(ctx context.Context, env *passEnv, lim limit) passData
	stop()
}

func newWorkload(name string, seed uint64) workload {
	switch name {
	case "evolve-hetero":
		return &seqRunner{ops: &evolveW{seed: seed}, roundOps: 2}
	case "stream-long":
		// A round is one pass over the ten registry scenarios.
		return &seqRunner{ops: &streamW{gen: streamGen{seed, scenario.Names()}}, roundOps: 10}
	case "grid-cold":
		return &seqRunner{ops: gridW{}, roundOps: 8}
	case "serve-mixed":
		return &serveW{gen: serveGen{seed}}
	}
	return nil
}

var workloadNames = []string{"evolve-hetero", "stream-long", "grid-cold", "serve-mixed"}

// passEnv is what ops of one pass share: the tracer (nil when
// untraced), the layer counters, the output checker and the host-speed
// calibrator.
type passEnv struct {
	tr    *tracer
	tally *tally
	chk   *checker
	cal   *calibrator
}

// opRecord is one op's outcome. lat covers only the work a user of the
// entry point waits for; checks and probes run outside it.
type opRecord struct {
	idx    int
	lat    time.Duration
	digest string
	err    error
}

// passData is one pass's op records plus the host resources its timed
// work used.
type passData struct {
	recs []opRecord
	// wall is the time the ops took: their summed latency when they run
	// one at a time, the loop's duration when clients overlap.
	wall time.Duration
	use  usage
	// rounds split the pass into stretches of about a second. The
	// end-to-end metrics are medians over rounds, so a burst of
	// interference from other tenants of the host moves them only when
	// it spans most of a run.
	rounds []round
}

// round is a fixed number of consecutive ops of a pass (for the
// serving loop, of consecutive replies).
type round struct {
	ops       int
	wall, cpu time.Duration
	lats      []float64 // ms
	rss       float64   // resident set size at the round's end, MB
	calib     float64   // mean calibration kernel time at the round's two ends, ms
}

// rssMB is the process's current resident set size.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// usage is process CPU time and Go heap activity, as deltas once
// subtracted.
type usage struct {
	cpu                       time.Duration
	mallocs, bytes, gcPauseNs uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcPauseNs: ms.PauseTotalNs}
}

func (u usage) sub(v usage) usage {
	return usage{u.cpu - v.cpu, u.mallocs - v.mallocs, u.bytes - v.bytes, u.gcPauseNs - v.gcPauseNs}
}

func (u usage) add(v usage) usage {
	return usage{u.cpu + v.cpu, u.mallocs + v.mallocs, u.bytes + v.bytes, u.gcPauseNs + v.gcPauseNs}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// limit stops a pass after a fixed op count (ops > 0) or once the
// deadline has passed (at least one op always runs).
type limit struct {
	ops   int
	until time.Time
}

func (l limit) done(i int) bool {
	if l.ops > 0 {
		return i >= l.ops
	}
	return i > 0 && !time.Now().Before(l.until)
}

// tally sums named per-layer counters across a pass.
type tally struct {
	mu sync.Mutex
	m  map[string]float64
}

func newTally() *tally { return &tally{m: map[string]float64{}} }

func (t *tally) add(k string, v float64) {
	t.mu.Lock()
	t.m[k] += v
	t.mu.Unlock()
}

func (t *tally) get(k string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[k]
}

// mix is splitmix64 over (a, b): request parameters derive from the
// bench seed and the op index through it, so a seed fixes every input.
func mix(a, b uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 + b + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// opSeed is op i's program seed: nonzero (0 selects a default) and
// exact in a JSON number.
func opSeed(seed uint64, i int) uint64 { return mix(seed, uint64(i))>>11 + 1 }

// seqOps is a workload whose ops run one after another.
type seqOps interface {
	// setup builds the pass's long-lived state.
	setup()
	// exec runs op i, the part a user of the entry point waits for,
	// recording spans under opSpan when traced.
	exec(ctx context.Context, env *passEnv, i, opSpan int) (any, error)
	// after checks exec's result, adds its layer counters and, when
	// traced, runs the op's probes. It returns the result's digest.
	after(ctx context.Context, env *passEnv, i int, res any) (string, error)
}

// seqRunner drives a seqOps workload in rounds of roundOps ops. Op 0
// doubles as the warm-up, so the timed op 0 must reproduce the
// warm-up's digest.
type seqRunner struct {
	ops      seqOps
	roundOps int
	warm     string
}

func (s *seqRunner) start(ctx context.Context, env *passEnv) (string, error) {
	s.ops.setup()
	warmEnv := &passEnv{tally: newTally(), chk: env.chk, cal: env.cal}
	res, err := s.ops.exec(ctx, warmEnv, 0, 0)
	if err == nil {
		s.warm, err = s.ops.after(ctx, warmEnv, 0, res)
	}
	return s.warm, err
}

func (s *seqRunner) stop() {}

func (s *seqRunner) run(ctx context.Context, env *passEnv, lim limit) passData {
	var pd passData
	var cur round
	prev := env.cal.sample()
	closeRound := func() {
		c := env.cal.sample()
		cur.rss, cur.calib, prev = rssMB(), (prev+c)/2, c
		pd.rounds = append(pd.rounds, cur)
		cur = round{}
	}
	for i := 0; !lim.done(i); i++ {
		u0 := readUsage()
		t0 := time.Now()
		opSpan := env.tr.begin(i, 0, "op", "")
		res, err := s.ops.exec(ctx, env, i, opSpan)
		env.tr.end(opSpan)
		lat := time.Since(t0)
		use := readUsage().sub(u0)
		pd.use = pd.use.add(use)
		pd.wall += lat
		cur.ops++
		cur.wall += lat
		cur.cpu += use.cpu
		cur.lats = append(cur.lats, float64(lat)/1e6)
		if cur.ops == s.roundOps {
			closeRound()
		}

		rec := opRecord{idx: i, lat: lat, err: err}
		if err == nil {
			rec.digest, rec.err = s.ops.after(ctx, env, i, res)
		}
		if rec.err == nil && i == 0 && rec.digest != s.warm {
			rec.err = fmt.Errorf("op 0: digest %s differs from the warm-up's %s", rec.digest, s.warm)
		}
		if rec.err == nil {
			rec.err = env.chk.op(i, rec.digest)
		}
		pd.recs = append(pd.recs, rec)
	}
	if len(pd.rounds) == 0 {
		closeRound()
	}
	return pd
}

// tallyCache adds an engine's cost-cache counters since mark.
func tallyCache(t *tally, eng *sweep.Engine, mark [2]uint64) {
	st := eng.Cache().Stats()
	t.add("costmodel.hits", float64(st.Hits-mark[0]))
	t.add("costmodel.misses", float64(st.Misses-mark[1]))
	t.add("costmodel.entries", float64(st.Entries))
	t.add("costmodel.samples", 1)
}

func cacheMark(eng *sweep.Engine) [2]uint64 {
	st := eng.Cache().Stats()
	return [2]uint64{st.Hits, st.Misses}
}

// tallyCompute adds one envelope's compute time under its request kind.
func tallyCompute(t *tally, env api.RunResult) {
	t.add("api.compute_ms."+env.Kind, env.Timings.ComputeMs)
	t.add("api.compute_n."+env.Kind, 1)
}

// tallyReport adds one pareto report's accounting.
func tallyReport(t *tally, rep pareto.Report) {
	t.add("pareto.reports", 1)
	t.add("pareto.designs", float64(len(rep.Evals)))
	t.add("pareto.simulated", float64(rep.Evaluated))
	t.add("pareto.pruned", float64(rep.Pruned))
	t.add("pareto.memo_hits", float64(rep.MemoHits))
	t.add("pareto.infeasible", float64(rep.Infeasible))
}

// ---- evolve-hetero: what cmd/pareto -evolve -json runs per invocation ----

var evolveReq = api.ParetoRequest{
	Scenarios: []string{"urban-8cam"}, Meshes: []string{"4x4", "6x6"},
	Dataflows: []string{"OS", "WS"}, ChipletTypes: []string{"simba", "eco", "big", "bwopt"},
	Frames: 4, WindowFrames: 2, Evolve: true, Generations: 30, Population: 16,
}

type evolveW struct{ seed uint64 }

type evolveRes struct {
	req  api.ParetoRequest
	resp *api.ParetoResponse
	out  []byte
	eng  *sweep.Engine
	cpu  time.Duration
}

func (w *evolveW) setup() {}

func (w *evolveW) exec(ctx context.Context, env *passEnv, i, opSpan int) (any, error) {
	tr := env.tr
	rq := evolveReq
	rq.Seed = opSeed(w.seed, i)
	body := mustJSON(rq)

	r := &evolveRes{eng: sweep.New(0)}
	id := tr.begin(i, opSpan, "api.decode", "pareto")
	err := api.Decode(body, &r.req)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	svc := api.NewService(r.eng)
	c0 := cpuTime()
	id = tr.begin(i, opSpan, "api.pareto", "")
	r.resp, err = svc.Pareto(ctx, &r.req)
	tr.end(id)
	r.cpu = cpuTime() - c0
	if err != nil {
		return nil, err
	}
	id = tr.begin(i, opSpan, "report.render", "pareto")
	r.out, err = r.resp.RenderJSON()
	tr.end(id)
	return r, err
}

func (w *evolveW) after(ctx context.Context, env *passEnv, i int, res any) (string, error) {
	r := res.(*evolveRes)
	d, err := digestOf(r.resp)
	if err != nil {
		return "", err
	}
	if err := checkReport(r.resp.Report); err != nil {
		return "", err
	}
	ev := r.resp.Report.Evolution
	if ev == nil || ev.Seed != r.req.Seed || ev.Generations != r.req.Generations || ev.Population != r.req.Population {
		return "", fmt.Errorf("evolve: report does not echo the requested run: %+v", ev)
	}
	t := env.tally
	tallyCompute(t, r.resp.RunResult)
	tallyReport(t, r.resp.Report)
	tallyCache(t, r.eng, [2]uint64{})
	t.add("report.bytes", float64(len(r.out)))
	t.add("report.renders", 1)
	if tr := env.tr; tr != nil {
		id := tr.begin(i, 0, "api.key", "pareto")
		_, err = api.NewService(nil).Key(&r.req)
		tr.end(id)
		if err == nil && i < replayOps {
			t.add("pareto.replayed", 1)
			t.add("pareto.cpu_ms", float64(r.cpu)/1e6)
			err = replay(ctx, tr, i, r.req, r.resp.Report)
		}
	}
	return d, err
}

// replayOps is how many leading ops of a traced evolve pass are
// replayed. A replay runs serially, about a second per op, so replaying
// every op would double the traced run.
const replayOps = 3

// replay attributes an evolve op's time to the scenario layer: on a
// fresh engine it re-runs scenario.Prepare for every design the report
// touched and Prepared.Run for every simulated one, serially, so each
// span's wall time is its CPU time.
func replay(ctx context.Context, tr *tracer, i int, req api.ParetoRequest, rep pareto.Report) error {
	sp, err := scenario.Lookup(req.Scenarios[0])
	if err != nil {
		return err
	}
	cache := sweep.New(1).Cache()
	root := tr.begin(i, 0, "replay", "")
	defer tr.end(root)
	for _, e := range rep.Evals {
		id := tr.begin(i, root, "replay.prepare", "")
		prep, err := scenario.Prepare(e.Candidate.Apply(sp), cache)
		tr.end(id)
		if e.Infeasible || e.Pruned {
			continue
		}
		if err != nil {
			return fmt.Errorf("replay %s: %w", e.Name, err)
		}
		id = tr.begin(i, root, "replay.stream", "")
		_, err = prep.Run(ctx, scenario.RunOptions{Frames: req.Frames, WindowFrames: req.WindowFrames})
		tr.end(id)
		if err != nil {
			return fmt.Errorf("replay %s: %w", e.Name, err)
		}
	}
	return nil
}

// ---- stream-long: Service.RunScenario on one warm engine ----

const (
	streamFrames = 16384
	streamWindow = 64
)

type streamW struct {
	gen  streamGen
	eng  *sweep.Engine
	svc  *api.Service
	mark [2]uint64 // cost-cache counters after the previous op
}

// streamGen derives op i's request: registry scenario i mod 10 with a
// trace seed from (seed, i).
type streamGen struct {
	seed  uint64
	names []string
}

func (g streamGen) request(i int) api.RunScenarioRequest {
	return api.RunScenarioRequest{Scenarios: []string{g.names[i%len(g.names)]},
		Frames: streamFrames, WindowFrames: streamWindow, Seed: opSeed(g.seed, i)}
}

type streamRes struct {
	name    string
	results []scenario.Result
}

func (w *streamW) setup() {
	w.eng = sweep.New(0)
	w.svc = api.NewService(w.eng)
	w.mark = [2]uint64{}
}

func (w *streamW) exec(ctx context.Context, env *passEnv, i, opSpan int) (any, error) {
	req := w.gen.request(i)
	name := req.Scenarios[0]
	if env.tr != nil {
		results, err := traceRun(ctx, env.tr, i, opSpan, w.eng, req)
		return &streamRes{name, results}, err
	}
	resp, err := w.svc.RunScenario(ctx, &req)
	if err != nil {
		return nil, err
	}
	tallyCompute(env.tally, resp.RunResult)
	return &streamRes{name, resp.Results}, nil
}

func (w *streamW) after(ctx context.Context, env *passEnv, i int, res any) (string, error) {
	r := res.(*streamRes)
	d, err := digestOf(api.RunScenarioResponse{Results: r.results})
	if err == nil {
		err = env.chk.checkRun(r.results, r.name, streamFrames, streamWindow)
	}
	env.tally.add("sim.frames", streamFrames)
	tallyCache(env.tally, w.eng, w.mark)
	w.mark = cacheMark(w.eng)
	return d, err
}

// traceRun executes a one-scenario run request as Service.RunScenario
// does — registry lookup, seed override, scenario.Prepare on the
// engine's cache, Prepared.Run on its pool — with a span per layer.
func traceRun(ctx context.Context, tr *tracer, op, parent int, eng *sweep.Engine, req api.RunScenarioRequest) ([]scenario.Result, error) {
	name := req.Scenarios[0]
	sp, err := scenario.Lookup(name)
	if err != nil {
		return nil, err
	}
	sp.Seed = req.Seed
	id := tr.begin(op, parent, "scenario.prepare", name)
	prep, err := scenario.Prepare(sp, eng.Cache())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(op, parent, "scenario.stream", name)
	r, err := prep.Run(ctx, scenario.RunOptions{Frames: req.Frames, WindowFrames: req.WindowFrames, Engine: eng})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return []scenario.Result{r}, nil
}

// ---- grid-cold: what cmd/sweep -grid runs, a fresh engine per op ----

var gridNames = experiments.GridScenarioNames()

type gridW struct{}

type gridRes struct {
	resp *api.GridSweepResponse
	eng  *sweep.Engine
}

func (gridW) setup() {}

func (gridW) exec(ctx context.Context, env *passEnv, i, opSpan int) (any, error) {
	eng := sweep.New(0)
	if env.tr != nil {
		return &gridRes{traceGrid(ctx, env.tr, i, opSpan, eng, env.tally), eng}, nil
	}
	resp, err := api.NewService(eng).GridSweep(ctx, &api.GridSweepRequest{})
	if err != nil {
		return nil, err
	}
	tallyCompute(env.tally, resp.RunResult)
	return &gridRes{resp, eng}, nil
}

func (gridW) after(ctx context.Context, env *passEnv, i int, res any) (string, error) {
	r := res.(*gridRes)
	d, err := digestOf(r.resp)
	if err == nil {
		err = env.chk.checkGrid(r.resp, d)
	}
	for _, g := range r.resp.Results {
		env.tally.add("sweep.run_ms."+g.Scenario, g.WorkMs)
		env.tally.add("sweep.work_ms", g.WorkMs)
	}
	tallyCache(env.tally, r.eng, [2]uint64{})
	return d, err
}

// traceGrid runs the whole grid as Service.GridSweep does, with the
// experiments layer's per-scenario Prepare and every point's Run
// wrapped in spans.
func traceGrid(ctx context.Context, tr *tracer, op, parent int, eng *sweep.Engine, t *tally) *api.GridSweepResponse {
	grid := experiments.ShardedGrid(eng)
	gridSpan := tr.begin(op, parent, "sweep.grid", "")
	for k := range grid {
		name, prepare := grid[k].Name, grid[k].Prepare
		grid[k].Prepare = func(ctx context.Context, cfg workloads.Config) (sweep.GridPlan, error) {
			id := tr.begin(op, gridSpan, "experiments.prepare", name)
			plan, err := prepare(ctx, cfg)
			tr.end(id)
			run := plan.Run
			plan.Run = func(ctx context.Context, p int) error {
				id := tr.begin(op, gridSpan, "sweep.point", name)
				defer tr.end(id)
				return run(ctx, p)
			}
			return plan, err
		}
	}
	t0 := time.Now()
	rs := eng.RunGridSharded(ctx, workloads.DefaultConfig(), grid)
	t.add("sweep.wall_ms", float64(time.Since(t0))/1e6)
	tr.end(gridSpan)
	resp := &api.GridSweepResponse{}
	for _, r := range rs {
		g := api.GridScenarioResult{Scenario: r.Scenario, TableData: r.Table, WorkMs: r.ElapsedMs}
		if r.Err != nil {
			g.Err, g.TableData = r.Err.Error(), nil
		}
		resp.Results = append(resp.Results, g)
	}
	return resp
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain request structs always marshal
	}
	return b
}
