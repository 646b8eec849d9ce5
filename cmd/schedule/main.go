// Command schedule runs the throughput-matching scheduler (Algorithm 1)
// on a chosen package and prints the resulting mappings — the paper's
// Figures 5-8 (per-stage mappings on the 6x6 MCM) and Figure 10 (the
// dual-NPU progression).
//
// Usage:
//
//	schedule                 # full pipeline on the 6x6 Simba package
//	schedule -npus 2         # dual-NPU, 72 chiplets (paper Fig 10)
//	schedule -trace          # print every greedy step
//	schedule -spec f.json    # schedule a scenario spec's workload
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"mcmnpu/internal/experiments"
	"mcmnpu/internal/nop"
	"mcmnpu/internal/report"
	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sched"
	"mcmnpu/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, writes to the given
// streams, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedule", flag.ContinueOnError)
	fs.SetOutput(stderr)
	npus := fs.Int("npus", 1, "active NPUs: 1 (6x6) or 2 (12x6, Fig 10)")
	trace := fs.Bool("trace", false, "print the greedy algorithm steps")
	specPath := fs.String("spec", "", "scenario spec JSON whose workload to schedule (the cmd/scenarios -spec format)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := workloads.DefaultConfig()
	if *specPath != "" {
		w, err := specWorkload(*specPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		cfg = w
	}

	if *npus == 2 {
		r, err := experiments.Fig10(cfg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		r.Table().Render(stdout)
		fmt.Fprintf(stdout, "\nfinal pipelining latency: %.1f ms (single NPU: %.1f ms, %.2fx)\n",
			r.DualPipeMs, r.SinglePipeMs, r.SinglePipeMs/r.DualPipeMs)
		return 0
	}

	rows, p, err := experiments.Fig5to8(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	experiments.Fig5to8Table(rows).Render(stdout)
	fmt.Fprintln(stdout)
	for _, sm := range rows {
		if len(sm.Shards) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "%s sharding:\n", sm.Stage)
		names := make([]string, 0, len(sm.Shards))
		for name := range sm.Shards {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(stdout, "  %-40s x%d\n", name, sm.Shards[name])
		}
	}
	printPlacement(stdout, p.Schedule)
	m := p.Metrics
	fmt.Fprintf(stdout, "\noverall: pipe %.1f ms (%.1f FPS), E2E %.1f ms, %.3f J/frame, util %.1f%%\n",
		m.PipeLatMs, m.FPS, m.E2EMs, m.EnergyJ, m.UtilPct)

	if *trace {
		t := report.NewTable("Algorithm steps", "Action", "Stage", "Pipe(ms)", "Free")
		for _, st := range p.Schedule.Steps {
			t.AddRow(st.Action, st.Stage, st.PipeLatMs, st.ChipletsFree)
		}
		fmt.Fprintln(stdout)
		t.Render(stdout)
	}
	return 0
}

// specWorkload reads a scenario spec in scenario.ParseSpec's strict
// format and returns its workload. schedule always runs the paper's
// packages (6x6, or 12x6 with -npus 2) under OS dataflow and default
// NoP and tolerance, so a spec that asks for a different package
// configuration is refused rather than silently ignored.
func specWorkload(path string) (workloads.Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return workloads.Config{}, err
	}
	sp, err := scenario.ParseSpec(data)
	if err != nil {
		return workloads.Config{}, err
	}
	def := scenario.Spec{}.WithDefaults()
	if sp.Package != def.Package || !strings.EqualFold(sp.Dataflow, def.Dataflow) ||
		len(sp.ChipletTypes) > 0 ||
		(sp.NoP != nil && *sp.NoP != nop.DefaultParams()) ||
		(sp.Tolerance != 0 && sp.Tolerance != sched.DefaultTolerance) {
		return workloads.Config{}, fmt.Errorf("schedule: spec %s sets package, dataflow, chiplet_types, nop or tolerance, "+
			"which schedule does not apply; run it with cmd/scenarios -spec", sp.Name)
	}
	return sp.Workload, nil
}

// printPlacement draws the mesh with each chiplet's stage assignment.
func printPlacement(w io.Writer, s *sched.Schedule) {
	fmt.Fprintln(w, "\npackage map (stage index per chiplet, . = idle):")
	owner := map[string]int{}
	for i, ss := range s.Stages {
		for _, u := range ss.Units {
			for _, c := range u.Chiplets {
				owner[c.String()] = i + 1
			}
		}
	}
	for y := 0; y < s.MCM.GridH; y++ {
		fmt.Fprint(w, "  ")
		for x := 0; x < s.MCM.GridW; x++ {
			key := fmt.Sprintf("(%d,%d)", x, y)
			if st, ok := owner[key]; ok {
				fmt.Fprintf(w, "%d ", st)
			} else {
				fmt.Fprint(w, ". ")
			}
		}
		fmt.Fprintln(w)
	}
}
