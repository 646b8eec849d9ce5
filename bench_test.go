// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its experiment — workload
// construction, cost-model evaluation, scheduling, search — and prints
// the resulting rows once (go test -bench=. -benchmem). EXPERIMENTS.md
// records the paper-vs-measured comparison for every entry.
package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/dse"
	"mcmnpu/internal/experiments"
	"mcmnpu/internal/nop"
	"mcmnpu/internal/pareto"
	"mcmnpu/internal/pipeline"
	"mcmnpu/internal/report"
	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sched"
	"mcmnpu/internal/sim"
	"mcmnpu/internal/sweep"
	"mcmnpu/internal/trace"
	"mcmnpu/internal/workloads"
)

var printOnce sync.Map

// printTable renders each experiment's table at most once per run, and
// only under -v (or -test.v): CI log parsers see clean benchmark lines
// by default, while `go test -bench=. -v` keeps the paper-vs-measured
// tables.
func printTable(key string, render func()) {
	if !testing.Verbose() {
		return
	}
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		render()
	}
}

func BenchmarkFig3PerComponentBreakdown(b *testing.B) {
	cfg := workloads.DefaultConfig()
	var r experiments.Fig3Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = experiments.Fig3(cfg)
	}
	b.StopTimer()
	printTable("fig3", func() {
		r.Table().Render(os.Stdout)
		fmt.Printf("OS speedup %.2fx (paper 6.85x) | WS energy gain %.2fx all / %.2fx ex-fusion (paper 1.2/1.55)\n",
			r.OSSpeedup, r.WSEnergyGain, r.WSEnergyGainNoFuse)
		fmt.Printf("S_FUSE %.0f%% T_FUSE %.0f%% of perception latency (paper 25-28%% / 52-54%%)\n\n",
			r.SFuseShare*100, r.TFuseShare*100)
	})
}

func BenchmarkFig4LayerAffinity(b *testing.B) {
	cfg := workloads.DefaultConfig()
	var rows []experiments.LayerAffinity
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig4(cfg)
	}
	b.StopTimer()
	printTable("fig4", func() {
		osAffLat, osAffE := 0, 0
		for _, r := range rows {
			if r.DeltaLatMs < 0 {
				osAffLat++
			}
			if r.DeltaEJ < 0 {
				osAffE++
			}
		}
		fmt.Printf("Fig 4: %d compute layers; OS-affine in latency: %d, in energy: %d\n\n",
			len(rows), osAffLat, osAffE)
	})
}

func BenchmarkFig5to8StageMappings(b *testing.B) {
	cfg := workloads.DefaultConfig()
	var rows []experiments.StageMapping
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Fig5to8(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("fig5to8", func() {
		experiments.Fig5to8Table(rows).Render(os.Stdout)
		fmt.Println()
	})
}

func BenchmarkTable1HeterogeneousTrunks(b *testing.B) {
	cfg := workloads.DefaultConfig()
	ctx := context.Background()
	var r experiments.TableIResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.TableI(ctx, sweep.New(1), cfg, 85)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("table1", func() {
		r.Table().Render(os.Stdout)
		fmt.Println()
	})
}

func BenchmarkFig9NoPCosts(b *testing.B) {
	cfg := workloads.DefaultConfig()
	_, s, err := experiments.Fig5to8(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var rows []experiments.NoPCost
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig9(s)
	}
	b.StopTimer()
	printTable("fig9", func() {
		experiments.Fig9Table(rows).Render(os.Stdout)
		fmt.Println()
	})
}

func BenchmarkTable2BaselineComparison(b *testing.B) {
	cfg := workloads.DefaultConfig()
	var rows []experiments.Table2Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("table2", func() {
		experiments.Table2Table(rows).Render(os.Stdout)
		fmt.Println()
	})
}

func BenchmarkFig10TwoNPUScaling(b *testing.B) {
	cfg := workloads.DefaultConfig()
	var r experiments.Fig10Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("fig10", func() {
		fmt.Printf("Fig 10: single-NPU pipe %.1f ms -> dual-NPU pipe %.1f ms (%.2fx) over %d greedy steps\n\n",
			r.SinglePipeMs, r.DualPipeMs, r.SinglePipeMs/r.DualPipeMs, len(r.Steps))
	})
}

func BenchmarkTable3OccupancyUpsampling(b *testing.B) {
	cfg := workloads.DefaultConfig()
	var rows []experiments.Table3Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.Table3(cfg)
	}
	b.StopTimer()
	printTable("table3", func() {
		experiments.Table3Table(rows).Render(os.Stdout)
		fmt.Println()
	})
}

func BenchmarkFig11LaneContextRetention(b *testing.B) {
	cfg := workloads.DefaultConfig()
	var rows []experiments.Fig11Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig11(cfg, 82)
	}
	b.StopTimer()
	printTable("fig11", func() {
		experiments.Fig11Table(rows, 82).Render(os.Stdout)
		fmt.Println()
	})
}

// BenchmarkDiscreteEventSim measures the event-driven validation path
// (not a paper artifact, but the substrate behind the utilization
// numbers).
func BenchmarkDiscreteEventSim(b *testing.B) {
	cfg := workloads.DefaultConfig()
	_, s, err := experiments.Fig5to8(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen := trace.NewGenerator(7)
	// One untimed run warms the simulator's pooled scratch, as in
	// BenchmarkSimStreamBacklog, so allocs/op does not depend on
	// whether a set-up GC emptied the pool.
	r, err := sim.Run(s, 12, gen)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err = sim.Run(s, 12, gen)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("sim", func() {
		fmt.Printf("discrete-event: steady interval %.1f ms, %.1f FPS, util %.1f%%\n\n",
			r.SteadyIntervalMs, r.ThroughputFPS, r.UtilPct)
	})
}

// benchmarkSimEngine drives one simulator engine over a 256-frame
// stream of the full-pipeline schedule — the scale at which the sweep
// grids exercise the simulator.
func benchmarkSimEngine(b *testing.B, frames int,
	run func(*sched.Schedule, int, *trace.Generator) (sim.Result, error)) {
	cfg := workloads.DefaultConfig()
	_, s, err := experiments.Fig5to8(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen := trace.NewGenerator(7)
	// One untimed run warms the simulator's pooled scratch (see
	// BenchmarkDiscreteEventSim).
	if _, err := run(s, frames, gen); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(s, frames, gen); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimEventDriven256 measures the event-driven engine at 256
// frames. The ns/op ratio against BenchmarkSimGreedyReference256 is the
// engine speedup (the acceptance bar is >= 5x; the min-heap engine
// lands orders of magnitude beyond it at this scale).
func BenchmarkSimEventDriven256(b *testing.B) {
	benchmarkSimEngine(b, 256, sim.Run)
}

// BenchmarkSimGreedyReference256 measures the O(n²) greedy rescan the
// event-driven engine replaced (kept as the differential-testing
// reference).
func BenchmarkSimGreedyReference256(b *testing.B) {
	benchmarkSimEngine(b, 256, sim.RunGreedy)
}

// BenchmarkSimStreamBacklog isolates the sim.Graph.Run layer on one
// 64-frame window (the window size of the repository benchmark's
// stream-long workload) of ws-dataflow-8cam, the most overloaded
// registry scenario: frames arrive faster than the all-WS package
// drains them, so tasks pile up waiting on busy chiplets. The schedule
// and graph are prepared once, as the scenario runner does.
func BenchmarkSimStreamBacklog(b *testing.B) {
	sp, err := scenario.Lookup("ws-dataflow-8cam")
	if err != nil {
		b.Fatal(err)
	}
	p, err := scenario.Prepare(sp, costmodel.NewCache())
	if err != nil {
		b.Fatal(err)
	}
	g, err := sim.Prepare(p.Schedule)
	if err != nil {
		b.Fatal(err)
	}
	gen := sp.Generator(sp.Seed)
	// One untimed window warms the pooled run scratch, as every window
	// after the first of a stream finds it. Without it a -benchtime=1x
	// run counts the scratch allocations or not, depending on whether
	// the set-up's GCs emptied the pool.
	if _, err := g.Run(64, gen); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Run(64, gen); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDataflow measures the package-wide dataflow ablation
// backing the paper's OS-only focus.
func BenchmarkAblationDataflow(b *testing.B) {
	cfg := workloads.DefaultConfig()
	var rows []experiments.DataflowAblationRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.DataflowAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("abl-dataflow", func() {
		experiments.DataflowAblationTable(rows).Render(os.Stdout)
		fmt.Println()
	})
}

// gridScenario runs one named ShardedGrid scenario on eng and returns
// its table.
func gridScenario(b *testing.B, eng *sweep.Engine, name string) *report.Table {
	r := eng.RunGridSharded(context.Background(), workloads.DefaultConfig(), experiments.SelectGrid(eng, name))
	if len(r) != 1 || r[0].Err != nil {
		b.Fatalf("grid scenario %s: %+v", name, r)
	}
	return r[0].Table
}

// BenchmarkAblationNoPSensitivity sweeps the interconnect parameters:
// the nop-bandwidth grid scenario at one worker, warm cache.
func BenchmarkAblationNoPSensitivity(b *testing.B) {
	eng := sweep.New(1)
	var t *report.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = gridScenario(b, eng, "nop-bandwidth")
	}
	b.StopTimer()
	printTable("abl-nop", func() {
		t.Render(os.Stdout)
		fmt.Println()
	})
}

// BenchmarkDSEExploreSerial is the §IV-C exhaustive search over the
// Het(2) pin (2^8 candidate masks), one in-order (*dse.Space).Best
// scan. Each iteration builds its own uncached space, then scans it.
func BenchmarkDSEExploreSerial(b *testing.B) {
	cfg := workloads.DefaultConfig()
	cfg.LaneContext = 0.6
	trunks := workloads.Trunks(cfg)
	var r dse.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = dse.NewCachedSpace(trunks, 9, 85, nil).Best(2)
	}
	b.StopTimer()
	printTable("dse-serial", func() {
		fmt.Printf("serial DSE: %d combos, best EDP %.2f\n\n", r.Combos, r.EDP)
	})
}

// BenchmarkSweepGridSerial runs the default experiment grid one
// scenario at a time.
func BenchmarkSweepGridSerial(b *testing.B) {
	benchmarkSweepGrid(b, sweep.New(1))
}

// BenchmarkSweepGridParallel runs the same grid across NumCPU workers.
func BenchmarkSweepGridParallel(b *testing.B) {
	benchmarkSweepGrid(b, sweep.New(0))
}

// Fixed-worker-count grid runs: the parallel-speedup ladder. Comparing
// these medians against BenchmarkSweepGridSerial makes scaling
// regressions (lock contention, allocator pressure) visible in the
// bench lane even when the default NumCPU run happens to land on a
// single-core machine. On hosts with fewer cores than workers the
// extra workers idle; the ladder is still recorded so the same
// artifact compares across machine classes by name.
func BenchmarkSweepGridParallel2(b *testing.B) { benchmarkSweepGrid(b, sweep.New(2)) }
func BenchmarkSweepGridParallel4(b *testing.B) { benchmarkSweepGrid(b, sweep.New(4)) }
func BenchmarkSweepGridParallel8(b *testing.B) { benchmarkSweepGrid(b, sweep.New(8)) }

func benchmarkSweepGrid(b *testing.B, eng *sweep.Engine) {
	cfg := workloads.DefaultConfig()
	scenarios := experiments.ShardedGrid(eng)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range eng.RunGridSharded(ctx, cfg, scenarios) {
			if r.Err != nil {
				b.Fatalf("scenario %s: %v", r.Scenario, r.Err)
			}
		}
	}
}

// BenchmarkFrontierSweep measures the analytic mesh x dataflow Pareto
// frontier summary (the experiments-layer view of the multi-objective
// explorer): the frontier grid scenario at one worker, warm cache.
func BenchmarkFrontierSweep(b *testing.B) {
	eng := sweep.New(1)
	var t *report.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = gridScenario(b, eng, "frontier")
	}
	b.StopTimer()
	printTable("frontier-sweep", func() {
		t.Render(os.Stdout)
		fmt.Println()
	})
}

// Frontier sweep scaling ladder: both rungs run the frontier grid
// scenario with a fresh (cold-cache) engine per iteration, so the
// Serial/Parallel8 ns/op ratio isolates worker scaling rather than
// cache warmth. The bench-check scaling gate asserts the ratio on
// multi-core runners.
func BenchmarkFrontierSweepSerial(b *testing.B)    { benchmarkFrontierSweep(b, 1) }
func BenchmarkFrontierSweepParallel8(b *testing.B) { benchmarkFrontierSweep(b, 8) }

func benchmarkFrontierSweep(b *testing.B, workers int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gridScenario(b, sweep.New(workers), "frontier") // fresh engine: cold cache each iteration
	}
}

// BenchmarkParetoExplore measures the full multi-objective exploration
// (lower-bound fan-out, dominance pruning, streamed full runs) over the
// default candidate space against the urban scenario.
func BenchmarkParetoExplore(b *testing.B) { benchmarkParetoExplore(b, 0, "pareto-explore") }

// Pareto explorer scaling ladder: same exploration at pinned worker
// counts, fresh engine per iteration. The Serial/Parallel8 ratio feeds
// the bench-check scaling gate alongside the grid and frontier ladders.
func BenchmarkParetoExploreSerial(b *testing.B)    { benchmarkParetoExplore(b, 1, "pareto-serial") }
func BenchmarkParetoExploreParallel8(b *testing.B) { benchmarkParetoExplore(b, 8, "pareto-par8") }

func benchmarkParetoExplore(b *testing.B, workers int, key string) {
	sp, err := scenario.Lookup("urban-8cam")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var rep pareto.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sweep.New(workers) // fresh engine: cold cache each iteration
		rep, err = pareto.Explore(ctx, pareto.Space{}, pareto.Options{
			Scenarios:    []scenario.Spec{sp},
			Frames:       8,
			WindowFrames: 4,
			Engine:       eng,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable(key, func() {
		fmt.Printf("pareto: %d candidates, %d evaluated, %d pruned, frontier %d\n\n",
			len(rep.Evals), rep.Evaluated, rep.Pruned, len(rep.Frontier))
	})
}

// BenchmarkParetoEvolve measures the evolutionary explorer on a
// heterogeneous space enumeration cannot touch: {4x4, 6x6} meshes x
// {OS, WS} x 4 chiplet types per position is ~9.4e21 design points, of
// which a 30-generation run bounds and streams a few hundred unique
// genomes.
func BenchmarkParetoEvolve(b *testing.B) { benchmarkParetoEvolve(b, 0, "pareto-evolve") }

// Evolutionary explorer scaling ladder: same seeded run at pinned
// worker counts, fresh engine per iteration. The Serial/Parallel8
// ratio feeds the bench-check scaling gate alongside the exhaustive
// explorer's ladder.
func BenchmarkParetoEvolveSerial(b *testing.B)    { benchmarkParetoEvolve(b, 1, "pareto-evolve-serial") }
func BenchmarkParetoEvolveParallel8(b *testing.B) { benchmarkParetoEvolve(b, 8, "pareto-evolve-par8") }

func benchmarkParetoEvolve(b *testing.B, workers int, key string) {
	sp, err := scenario.Lookup("urban-8cam")
	if err != nil {
		b.Fatal(err)
	}
	space := pareto.Space{
		Meshes:    []pareto.MeshDim{{W: 4, H: 4}, {W: 6, H: 6}},
		Dataflows: []string{"OS", "WS"},
		Types:     []string{"simba", "eco", "big", "bwopt"},
	}
	ctx := context.Background()
	var rep pareto.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sweep.New(workers) // fresh engine: cold cache each iteration
		rep, err = pareto.Evolve(ctx, space, pareto.EvolveOptions{
			Options: pareto.Options{
				Scenarios:    []scenario.Spec{sp},
				Frames:       4,
				WindowFrames: 2,
				Engine:       eng,
			},
			Generations: 30,
			Population:  16,
			Seed:        1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable(key, func() {
		fmt.Printf("evolve: space %.3g, %d unique genomes (%d simulated, %d pruned, %d memo hits), frontier %d, hypervolume %.4g\n\n",
			rep.Evolution.SpaceSize, len(rep.Evals), rep.Evaluated, rep.Pruned, rep.MemoHits,
			len(rep.Frontier), rep.Evolution.Hypervolume)
	})
}

// BenchmarkSchedulerOnly isolates Algorithm 1's own runtime (the paper
// calls it a low-cost scheduling algorithm — this measures that claim).
func BenchmarkSchedulerOnly(b *testing.B) {
	cfg := workloads.DefaultConfig()
	var m pipeline.Metrics
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, s, err := experiments.Fig5to8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = rows
		m = pipeline.Compute(s, pipeline.Layerwise)
	}
	b.StopTimer()
	printTable("schedonly", func() {
		fmt.Printf("scheduler end-to-end: pipe %.1f ms util %.1f%%\n\n", m.PipeLatMs, m.UtilPct)
	})
}

// BenchmarkSchedulerHetero isolates Algorithm 1 on a mixed-type 6x6
// package (simba/eco/big/bwopt chiplets interleaved): the heterogeneous
// probe path that mixed-type evolutionary-search candidates take, which
// the homogeneous BenchmarkSchedulerOnly never reaches. One build warms
// the shared cost cache first, so the loop measures the scheduler, not
// first sightings of layer costs.
func BenchmarkSchedulerHetero(b *testing.B) {
	p, err := workloads.Perception(workloads.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	types := []string{"simba", "eco", "big", "bwopt"}
	assign := make([]string, 36)
	for i := range assign {
		assign[i] = types[(i+i/6)%len(types)]
	}
	m, err := chiplet.NewTyped("mixed-6x6", 6, 6, nop.DefaultParams(), dataflow.OS, assign)
	if err != nil {
		b.Fatal(err)
	}
	opts := sched.DefaultOptions()
	opts.Cache = costmodel.NewCache()
	if _, err := sched.Build(p, m, opts); err != nil {
		b.Fatal(err)
	}
	var s *sched.Schedule
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s, err = sched.Build(p, m, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("schedhetero", func() {
		fmt.Printf("mixed-type scheduler: pipe %.1f ms on %s\n\n", s.PipeLatMs(), m.TypeCounts())
	})
}
