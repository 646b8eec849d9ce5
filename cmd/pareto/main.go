// Command pareto runs the multi-objective design-space exploration:
// candidate MCM configurations (mesh size x dataflow x NoP bandwidth)
// are scored against one or more registry scenarios on realized p99
// latency, per-frame energy and total PE count, and the non-dominated
// frontier is reported. Candidate x scenario lower bounds fan across a
// worker pool and dominance pruning skips full streaming runs that
// could never reach the frontier; the frontier is bit-for-bit identical
// across worker counts. The exploration executes through the
// internal/api service — the same typed request path the cmd/serve
// daemon speaks.
//
// With -evolve the exhaustive enumeration is replaced by the
// bound-seeded NSGA-II explorer, which adds the heterogeneous
// per-chiplet type axis (-types) and searches spaces of 10^6+ design
// points that enumeration cannot touch; the same seed produces a
// byte-identical frontier at any worker count.
//
// Usage:
//
//	pareto -scenarios urban-8cam                       # frontier table
//	pareto -scenarios urban-8cam,highway-5cam -top 5   # ranked top-5
//	pareto -scenarios all -json -o frontier.json       # machine-readable export
//	pareto -scenarios urban-8cam -meshes 4x4,6x6 -linkbw 100,200 -csv
//	pareto -scenarios urban-8cam -evolve -types simba,eco,big -generations 30
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"mcmnpu/internal/api"
	"mcmnpu/internal/prof"
	"mcmnpu/internal/report"
	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, writes to
// the given streams, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pareto", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenarios  = fs.String("scenarios", "", `comma-separated registry scenarios ("all" = whole registry)`)
		meshes     = fs.String("meshes", "", "candidate meshes as WxH list (default 4x4,6x6,8x8,12x6)")
		dataflows  = fs.String("dataflows", "", "candidate dataflows (default OS,WS)")
		linkbw     = fs.String("linkbw", "", "candidate NoP link bandwidths in GB/s (default package default)")
		objectives = fs.String("objectives", "", "objective subset of p99,energy,pes (default all)")
		frames     = fs.Int("frames", 0, "frame budget override per scenario (0 = scenario default)")
		window     = fs.Int("window", scenario.DefaultWindowFrames, "trace-window size in frames")
		workers    = fs.Int("workers", 0, "worker count for the evaluation pool (0 = NumCPU)")
		noprune    = fs.Bool("noprune", false, "disable dominance-based early pruning")
		top        = fs.Int("top", 0, "render the top-N frontier candidates ranked by objective product")
		evolve     = fs.Bool("evolve", false, "search with bound-seeded NSGA-II instead of exhaustive enumeration")
		types      = fs.String("types", "", "chiplet library types for the heterogeneous axis (e.g. simba,eco,big)")
		gens       = fs.Int("generations", 0, "evolutionary generations (0 = default 30; requires -evolve)")
		population = fs.Int("population", 0, "evolutionary population size (0 = default 24; requires -evolve)")
		seed       = fs.Uint64("seed", 0, "evolutionary RNG seed (0 = default 1; requires -evolve)")
		timeout    = fs.Duration("timeout", 0, "overall deadline (0 = none)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	var opts report.Options
	opts.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scenarios == "" {
		fs.Usage()
		return 2
	}

	profiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer func() {
		if err := profiles.Stop(); err != nil {
			fmt.Fprintln(stderr, err)
		}
	}()

	req, err := buildRequest(*scenarios, *meshes, *dataflows, *linkbw, *objectives,
		*frames, *window, *top, *noprune)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	req.ChipletTypes = splitList(*types)
	req.Evolve = *evolve
	req.Generations = *gens
	req.Population = *population
	req.Seed = *seed
	if err := req.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// The output artifact opens after input validation but before the
	// exploration: a stale artifact fails the run immediately instead of
	// discarding a completed multi-minute exploration, and a typo in the
	// flags never truncates an existing artifact under -force.
	art, err := opts.Open(stdout)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	resp, err := api.NewService(sweep.New(*workers)).Pareto(ctx, req)
	if err != nil {
		art.Abort()
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := opts.Emit(art, resp); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// buildRequest assembles the typed api request from the flag values.
func buildRequest(scenarios, meshes, dataflows, linkbw, objectives string,
	frames, window, top int, noprune bool) (*api.ParetoRequest, error) {
	req := &api.ParetoRequest{
		Scenarios:    splitList(scenarios),
		Meshes:       splitList(meshes),
		Dataflows:    splitList(dataflows),
		Objectives:   splitList(objectives),
		Frames:       frames,
		WindowFrames: window,
		Top:          top,
		NoPrune:      noprune,
	}
	for _, f := range splitList(linkbw) {
		var bw float64
		if _, err := fmt.Sscanf(f, "%g", &bw); err != nil {
			return nil, fmt.Errorf("pareto: malformed link bandwidth %q", f)
		}
		req.LinkBWGBs = append(req.LinkBWGBs, bw)
	}
	return req, nil
}

// splitList parses a comma-separated flag into trimmed names.
func splitList(csv string) []string {
	var out []string
	for _, f := range strings.Split(csv, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
