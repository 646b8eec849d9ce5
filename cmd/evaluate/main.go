// Command evaluate regenerates the paper's evaluation tables and the
// remaining figures: Table I (heterogeneous trunks), Table II (chiplet
// arrangements vs baselines), Table III (occupancy upsampling), Fig 9
// (NoP costs) and Fig 11 (lane context-aware computing). With -all it
// prints everything in paper order.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"mcmnpu/internal/experiments"
	"mcmnpu/internal/report"
	"mcmnpu/internal/sweep"
	"mcmnpu/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, writes to the given
// streams, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("evaluate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	t1 := fs.Bool("table1", false, "heterogeneous trunks integration (paper Table I)")
	t2 := fs.Bool("table2", false, "chiplet arrangements vs baselines (paper Table II)")
	t3 := fs.Bool("table3", false, "occupancy upsampling ablation (paper Table III)")
	f9 := fs.Bool("fig9", false, "NoP data movement costs (paper Fig 9)")
	f11 := fs.Bool("fig11", false, "lane context-aware computing (paper Fig 11)")
	abl := fs.Bool("ablations", false, "design-choice ablations (dataflow, NoP, tolerance, queue depth)")
	all := fs.Bool("all", false, "run everything")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) bool {
		if err != nil {
			fmt.Fprintln(stderr, err)
		}
		return err != nil
	}

	ctx := context.Background()
	eng := sweep.New(0)
	cfg := workloads.DefaultConfig()
	ran := false

	if *t1 || *all {
		r, err := experiments.TableI(ctx, eng, cfg, 85)
		if fail(err) {
			return 1
		}
		r.Table().Render(stdout)
		fmt.Fprintln(stdout)
		ran = true
	}
	if *t2 || *all {
		rows, err := experiments.Table2(cfg)
		if fail(err) {
			return 1
		}
		experiments.Table2Table(rows).Render(stdout)
		fmt.Fprintln(stdout)
		ran = true
	}
	if *t3 || *all {
		experiments.Table3Table(experiments.Table3(cfg)).Render(stdout)
		fmt.Fprintln(stdout)
		ran = true
	}
	if *f9 || *all {
		_, p, err := experiments.Fig5to8(cfg)
		if fail(err) {
			return 1
		}
		rows := experiments.Fig9(p.Schedule)
		experiments.Fig9Table(rows).Render(stdout)
		labels := make([]string, 0, len(rows))
		lats := make([]float64, 0, len(rows))
		for _, r := range rows {
			labels = append(labels, r.Label)
			lats = append(lats, r.LatencyMs)
		}
		fmt.Fprintln(stdout)
		report.Bars(stdout, "NoP latency per layer group", labels, lats, "ms")
		fmt.Fprintln(stdout)
		ran = true
	}
	if *f11 || *all {
		rows := experiments.Fig11(cfg, 82)
		experiments.Fig11Table(rows, 82).Render(stdout)
		labels := make([]string, 0, len(rows))
		lats := make([]float64, 0, len(rows))
		for _, r := range rows {
			labels = append(labels, fmt.Sprintf("%d%%", r.ContextPct))
			lats = append(lats, r.LatencyMs)
		}
		fmt.Fprintln(stdout)
		report.Bars(stdout, "Lane trunk latency vs context retained", labels, lats, "ms")
		ran = true
	}
	if *abl || *all {
		rows, err := experiments.DataflowAblation(cfg)
		if fail(err) {
			return 1
		}
		experiments.DataflowAblationTable(rows).Render(stdout)
		// The NoP, tolerance and queue-depth ablations are grid
		// scenarios: one sharded run, printed in this order.
		order := []string{"nop-bandwidth", "tolerance", "temporal-depth"}
		tables := map[string]*report.Table{}
		for _, r := range eng.RunGridSharded(ctx, cfg, experiments.SelectGrid(eng, order...)) {
			if fail(r.Err) {
				return 1
			}
			tables[r.Scenario] = r.Table
		}
		for _, name := range order {
			fmt.Fprintln(stdout)
			tables[name].Render(stdout)
		}
		ran = true
	}
	if !ran {
		fs.Usage()
		return 2
	}
	return 0
}
