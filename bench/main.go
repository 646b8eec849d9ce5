// Command bench is the repository benchmark. It drives the simulator
// only through its public entry points, in the sequence the CLIs and
// the cmd/serve daemon use, on one of four workloads, and checks every
// output. See README.md for the workloads, metrics and how to compare
// two commits.
//
// Usage:
//
//	bench -workload evolve-hetero -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With -trace 0 the
// metrics are the end-to-end ones; with -trace 1 a traced pass follows
// an untraced one over the same ops and the metrics are per layer, and
// the spans are written to the -spans file.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sweep"
)

func main() {
	os.Exit(benchMain(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// setupProbes is how many fresh processes each run starts to measure
// set-up time; the reported setup_s is their median.
const setupProbes = 3

func benchMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same requests")
	seconds := fs.Float64("seconds", 20, "how long the timed pass runs (BENCHMARK.json run_seconds)")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	spans := fs.String("spans", "", "trace file for -trace 1 (default .bench_build/spans/WORKLOAD-seedN.json)")
	probe := fs.Bool("setup-probe", false, "set up once, print the warm-up digest and exit (the set-up measurement runs this)")
	calibrate := fs.Bool("calibrate", false, "time the host-speed calibration kernel, print it in ms and exit (the calibration runs this)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *calibrate {
		fmt.Fprintln(stdout, calibrationKernel())
		return 0
	}
	if newWorkload(*name, *seed) == nil || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fs.Usage()
		return 2
	}
	committed, err := loadCommitted()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *probe {
		d, err := setUp(ctx, *name, *seed, committed)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "{\"warm_digest\":%q}\n", d)
		return 0
	}
	cal, err := newCalibrator()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *traceMode == 1,
		spans: *spans, probes: setupProbes, cal: cal, committed: committed}
	if cfg.trace {
		// setup_s is an end-to-end metric: a traced run does not print it.
		cfg.probes = 0
	}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", *name, *seed))
	}
	out, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, l := range out.lines {
		fmt.Fprintln(stdout, l)
	}
	b, err := json.Marshal(out.res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !out.res.Correct {
		return 1
	}
	return 0
}

// config is one benchmark run.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	spans     string
	probes    int         // set-up probe processes; 0 times the run's own set-up instead
	cal       *calibrator // nil leaves timings unscaled
	ops       int         // fixed op count per pass; 0 runs for seconds
	committed *digestFile
}

// result is the JSON line the run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a run's result plus what a caller may inspect: the report
// lines, the untraced pass's per-op digests and the seed-independent
// digests seen.
type outcome struct {
	res       result
	lines     []string
	digests   []string
	invariant map[string]string
}

// setUp is one set-up: fresh pass state plus the warm-up op.
func setUp(ctx context.Context, name string, seed uint64, committed *digestFile) (string, error) {
	w := newWorkload(name, seed)
	defer w.stop()
	return w.start(ctx, &passEnv{tally: newTally(), chk: newChecker(committed, name, seed)})
}

// probeSetUp times one set-up in a fresh process, from exec to exit, so
// start-up work in package initialisation or process-wide caches counts
// on every sample.
func probeSetUp(ctx context.Context, cfg config) (time.Duration, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, "", err
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", cfg.workload,
		"-seed", fmt.Sprint(cfg.seed), "-setup-probe")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	t0 := time.Now()
	err = cmd.Run()
	el := time.Since(t0)
	if err != nil {
		return 0, "", fmt.Errorf("set-up probe: %w", err)
	}
	var p struct {
		WarmDigest string `json:"warm_digest"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &p); err != nil {
		return 0, "", fmt.Errorf("set-up probe output: %w", err)
	}
	return el, p.WarmDigest, nil
}

// passOut is one measured pass.
type passOut struct {
	passData
	setup time.Duration
	warm  string
	tally *tally
}

// runPass sets up fresh state, then runs ops until lim (its deadline
// counted from the end of set-up) says stop.
func runPass(ctx context.Context, cfg config, chk *checker, cal *calibrator, tr *tracer, ops int, measure time.Duration) (passOut, error) {
	w := newWorkload(cfg.workload, cfg.seed)
	defer w.stop()
	env := &passEnv{tr: tr, tally: newTally(), chk: chk, cal: cal}
	t0 := time.Now()
	warm, err := w.start(ctx, env)
	p := passOut{setup: time.Since(t0), warm: warm, tally: env.tally}
	if err != nil {
		return p, fmt.Errorf("set-up: %w", err)
	}
	p.passData = w.run(ctx, env, limit{ops: ops, until: time.Now().Add(measure)})
	return p, nil
}

func run(ctx context.Context, cfg config) (*outcome, error) {
	chk := newChecker(cfg.committed, cfg.workload, cfg.seed)
	cal := cfg.cal
	var problems []string
	var setups []float64
	var probeDigests []string
	setupCalib := cal.sample()
	for i := 0; i < cfg.probes; i++ {
		el, d, err := probeSetUp(ctx, cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, el.Seconds())
		probeDigests = append(probeDigests, d)
	}
	setupCalib = (setupCalib + cal.sample()) / 2

	measure := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		measure /= 2 // the traced pass repeats the untraced pass's ops
	}
	plain, err := runPass(ctx, cfg, chk, cal, nil, cfg.ops, measure)
	if err != nil {
		return nil, err
	}
	if len(setups) == 0 {
		setups = []float64{plain.setup.Seconds()}
	}
	for _, d := range probeDigests {
		if d != plain.warm {
			problems = append(problems, fmt.Sprintf("set-up probe warm-up digest %s differs from %s", d, plain.warm))
		}
	}

	out := &outcome{invariant: chk.invariant}
	for _, r := range plain.recs {
		out.digests = append(out.digests, r.digest)
	}
	recs := plain.recs
	var traced passOut
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		traced, err = runPass(ctx, cfg, chk, cal, tr, len(plain.recs), 0)
		if err != nil {
			return nil, err
		}
		for i, r := range traced.recs {
			if r.err == nil && i < len(plain.recs) && r.digest != plain.recs[i].digest {
				traced.recs[i].err = fmt.Errorf("op %d: traced digest %s differs from untraced %s", r.idx, r.digest, plain.recs[i].digest)
			}
		}
		recs = append(append([]opRecord(nil), recs...), traced.recs...)
		if err := tr.write(cfg.spans); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}

	if cal != nil && cal.err != nil {
		problems = append(problems, cal.err.Error())
	}
	res := result{Attempted: len(recs) + len(setups), Failed: len(problems)}
	for _, r := range recs {
		if r.err != nil {
			res.Failed++
			if len(problems) < 10 {
				problems = append(problems, r.err.Error())
			}
		}
	}
	res.Correct = res.Failed == 0

	workers := sweep.New(0).Workers()
	var vals map[string]sample
	var defs []metricDef
	if cfg.trace {
		vals, defs = layerMetrics(plain, traced, tr, workers), perLayerDefs()
		out.lines = append(out.lines, fmt.Sprintf("# trace file %s", cfg.spans))
	} else {
		vals, defs = endToEndMetrics(plain, setups, setupCalib), endToEndDefs
	}
	res.Metrics = map[string]metric{}
	out.lines = append(out.lines, fmt.Sprintf("# bench workload=%s seed=%d gomaxprocs=%d workers=%d ops=%d measured_s=%.3f calib_ms=%.3f (timings scaled to %g)",
		cfg.workload, cfg.seed, runtime.GOMAXPROCS(0), workers, len(plain.recs), plain.wall.Seconds(), calibOf(plain.rounds), refCalibMs))
	for _, d := range defs {
		v := vals[d.Name]
		res.Metrics[d.Name] = metric{Value: v.v, Unit: d.Unit}
		line := fmt.Sprintf("%-44s %14.6g %-7s", d.Name, v.v, d.Unit)
		if v.n > 0 {
			line += fmt.Sprintf(" (n=%d)", v.n)
		}
		out.lines = append(out.lines, line)
	}
	for _, p := range problems {
		out.lines = append(out.lines, "# FAILED: "+p)
	}
	out.res = res
	return out, nil
}

// sample is a metric value with the number of samples it summarizes
// (0 when it is not a statistic over samples).
type sample struct {
	v float64
	n int
}

// metricDef declares one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.16},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.17},
	{"cpu_ms_per_op", "ms", "lower", 0.18},
	{"rss_mb", "MB", "lower", 0.19},
}

// memRounds is how many leading rounds the memory metric reads: a fixed
// amount of work, so a host that runs more ops in the same time does not
// report more memory for a program whose footprint grows with the
// requests it has served.
const memRounds = 5

// endToEndMetrics derives the end-to-end metrics of the untraced pass.
// Throughput, CPU per op and the p99 are each taken per round and
// reported as the median over rounds, memory as the median over the
// first memRounds rounds; the p50 is over all ops of the rounds. Every
// timing is scaled to the reference host speed by the calibration
// kernel time around its round (around the set-ups for setup_s).
func endToEndMetrics(p passOut, setups []float64, setupCalib float64) map[string]sample {
	var all []float64
	var tput, cpu, p99, rss []float64
	for i, r := range p.rounds {
		scale := refCalibMs / r.calib
		for _, l := range r.lats {
			all = append(all, l*scale)
		}
		if i < memRounds {
			rss = append(rss, r.rss)
		}
		if r.ops == 0 {
			continue
		}
		sort.Float64s(r.lats)
		tput = append(tput, float64(r.ops)/(r.wall.Seconds()*scale))
		cpu = append(cpu, float64(r.cpu)/1e6/float64(r.ops)*scale)
		p99 = append(p99, nearestRank(r.lats, 0.99)*scale)
	}
	sort.Float64s(all)
	n, nr := len(all), len(p.rounds)
	return map[string]sample{
		"setup_s":        {median(setups) * refCalibMs / setupCalib, len(setups)},
		"ops_per_s":      {median(tput), nr},
		"latency_p50_ms": {nearestRank(all, 0.50), n},
		"latency_p99_ms": {median(p99), nr},
		"cpu_ms_per_op":  {median(cpu), nr},
		"rss_mb":         {median(rss), len(rss)},
	}
}

// calibOf is the median calibration kernel time over rounds.
func calibOf(rounds []round) float64 {
	var cs []float64
	for _, r := range rounds {
		cs = append(cs, r.calib)
	}
	return median(cs)
}

// median returns the median of xs (the lower middle value for an even
// count, so it is always a measured value); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[(len(xs)-1)/2]
}

// nearestRank returns the q-quantile of sorted by the nearest-rank rule.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// perLayerDefs lists the traced run's metrics. Every workload prints
// every one; a layer a workload does not reach reads 0.
func perLayerDefs() []metricDef {
	ms := func(name string) metricDef { return metricDef{Name: name, Unit: "ms", Better: "lower"} }
	defs := []metricDef{
		ms("op.self_ms"),
		ms("api.decode_ms"),
		ms("api.key_ms"),
	}
	for _, k := range []string{"run", "sweep", "dse", "pareto"} {
		defs = append(defs, ms("api.compute_ms."+k))
	}
	for _, k := range []string{"run", "dse", "pareto", "replay"} {
		defs = append(defs, ms("http."+k+"_ms"))
	}
	defs = append(defs,
		ms("http.overhead_ms"),
		metricDef{"api.result_cache.hit_ratio", "ratio", "higher", 0},
		metricDef{"api.replay_misses", "count", "lower", 0},
		metricDef{"api.rejected", "count", "lower", 0},
		ms("report.render_ms"),
		metricDef{"report.bytes", "B", "lower", 0},
		ms("scenario.prepare_ms"),
		ms("scenario.stream_ms"),
	)
	for _, n := range scenario.Names() {
		defs = append(defs, ms("scenario.prepare_ms."+n))
	}
	for _, n := range scenario.Names() {
		defs = append(defs, ms("scenario.stream_ms."+n))
	}
	defs = append(defs,
		metricDef{"sim.us_per_frame", "us", "lower", 0},
		ms("scenario.prepare_replay_ms"),
		ms("scenario.stream_replay_ms"),
		metricDef{"pareto.designs", "count", "lower", 0},
		metricDef{"pareto.simulated", "count", "lower", 0},
		metricDef{"pareto.pruned", "count", "higher", 0},
		metricDef{"pareto.memo_hits", "count", "higher", 0},
		metricDef{"pareto.infeasible", "count", "lower", 0},
		metricDef{"pareto.prune_ratio", "ratio", "higher", 0},
		metricDef{"pareto.memo_hit_ratio", "ratio", "higher", 0},
		ms("pareto.other_cpu_ms"),
		metricDef{"costmodel.hits", "count", "higher", 0},
		metricDef{"costmodel.misses", "count", "lower", 0},
		metricDef{"costmodel.entries", "count", "lower", 0},
		metricDef{"costmodel.hit_ratio", "ratio", "higher", 0},
	)
	for _, n := range gridNames {
		defs = append(defs, ms("sweep.run_ms."+n))
	}
	defs = append(defs,
		ms("sweep.work_ms"),
		metricDef{"sweep.parallel_eff", "ratio", "higher", 0},
		ms("experiments.grid_build_ms"),
		metricDef{"runtime.allocs_per_op", "count", "lower", 0},
		metricDef{"runtime.alloc_mb_per_op", "MB", "lower", 0},
		ms("runtime.gc_pause_ms"),
		metricDef{"trace.overhead_pct", "%", "lower", 0},
		ms("host.calib_ms"),
	)
	return defs
}

// layerMetrics derives the per-layer metrics. Span-timed layers use
// self time, and counters come from the traced pass; envelope compute
// times and Go runtime counters come from the untraced pass, whose ops
// run the service's own code untouched by tracing.
func layerMetrics(plain, traced passOut, tr *tracer, workers int) map[string]sample {
	self := tr.selfTimes()
	t, pt := traced.tally, plain.tally
	ops := float64(len(traced.recs))
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perOp := func(span string) sample { return sample{div(self[span].ms(), ops), self[span].calls} }
	perCall := func(span string) sample {
		lt := self[span]
		return sample{div(lt.ms(), float64(lt.calls)), lt.calls}
	}
	replayed := t.get("pareto.replayed")
	perReplay := func(span string) sample { return sample{div(self[span].ms(), replayed), self[span].calls} }
	m := map[string]sample{
		"op.self_ms":       perOp("op"),
		"api.decode_ms":    perCall("api.decode"),
		"api.key_ms":       perCall("api.key"),
		"http.overhead_ms": {div(t.get("http.overhead_ms"), t.get("http.computed")), int(t.get("http.computed"))},
		"api.result_cache.hit_ratio": {div(t.get("api.result_cache.hits"),
			t.get("api.result_cache.hits")+t.get("api.result_cache.misses")), 0},
		"api.replay_misses":          {t.get("api.replay_misses"), 0},
		"api.rejected":               {t.get("api.rejected"), 0},
		"report.render_ms":           perCall("report.render"),
		"report.bytes":               {div(t.get("report.bytes"), t.get("report.renders")), int(t.get("report.renders"))},
		"scenario.prepare_ms":        perOp("scenario.prepare"),
		"scenario.stream_ms":         perOp("scenario.stream"),
		"sim.us_per_frame":           {div(float64(self["scenario.stream"].selfNs)/1e3, t.get("sim.frames")), 0},
		"scenario.prepare_replay_ms": perReplay("replay.prepare"),
		"scenario.stream_replay_ms":  perReplay("replay.stream"),
		"pareto.other_cpu_ms":        {div(t.get("pareto.cpu_ms")-self["replay.prepare"].ms()-self["replay.stream"].ms(), replayed), int(replayed)},
		"costmodel.hits":             {div(t.get("costmodel.hits"), ops), 0},
		"costmodel.misses":           {div(t.get("costmodel.misses"), ops), 0},
		"costmodel.entries":          {div(t.get("costmodel.entries"), t.get("costmodel.samples")), 0},
		"costmodel.hit_ratio":        {div(t.get("costmodel.hits"), t.get("costmodel.hits")+t.get("costmodel.misses")), 0},
		"sweep.work_ms":              {div(t.get("sweep.work_ms"), ops), 0},
		"sweep.parallel_eff":         {div(t.get("sweep.work_ms"), t.get("sweep.wall_ms")*float64(workers)), 0},
		"experiments.grid_build_ms":  perOp("experiments.prepare"),
		"trace.overhead_pct": {100 * (div(traced.wall.Seconds()/calibOf(traced.rounds),
			plain.wall.Seconds()/calibOf(plain.rounds)) - 1), len(traced.recs)},
		"host.calib_ms": {calibOf(plain.rounds), len(plain.rounds)},
	}
	for _, k := range []string{"run", "sweep", "dse", "pareto"} {
		n := pt.get("api.compute_n." + k)
		m["api.compute_ms."+k] = sample{div(pt.get("api.compute_ms."+k), n), int(n)}
	}
	for _, k := range []string{"run", "dse", "pareto", "replay"} {
		m["http."+k+"_ms"] = perCall("op." + k)
	}
	for _, n := range scenario.Names() {
		m["scenario.prepare_ms."+n] = perCall("scenario.prepare." + n)
		m["scenario.stream_ms."+n] = perCall("scenario.stream." + n)
	}
	reports := t.get("pareto.reports")
	for _, k := range []string{"designs", "simulated", "pruned", "memo_hits", "infeasible"} {
		m["pareto."+k] = sample{div(t.get("pareto."+k), reports), int(reports)}
	}
	m["pareto.prune_ratio"] = sample{div(t.get("pareto.pruned"), t.get("pareto.designs")), 0}
	m["pareto.memo_hit_ratio"] = sample{div(t.get("pareto.memo_hits"), t.get("pareto.memo_hits")+t.get("pareto.designs")), 0}
	for _, n := range gridNames {
		m["sweep.run_ms."+n] = sample{div(t.get("sweep.run_ms."+n), ops), 0}
	}
	n := float64(len(plain.recs))
	m["runtime.allocs_per_op"] = sample{div(float64(plain.use.mallocs), n), len(plain.recs)}
	m["runtime.alloc_mb_per_op"] = sample{div(float64(plain.use.bytes)/(1<<20), n), len(plain.recs)}
	m["runtime.gc_pause_ms"] = sample{div(float64(plain.use.gcPauseNs)/1e6, n), len(plain.recs)}
	return m
}
