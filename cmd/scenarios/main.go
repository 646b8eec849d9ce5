// Command scenarios lists, filters and runs the named AV scenario
// library through the streaming multi-frame runner: each scenario is
// prepared once (its package instantiated and its schedule built) and
// streams its frame budget through the event-driven simulator
// in trace windows fanned across a worker pool. Requests execute
// through the internal/api service — the same typed request path the
// cmd/serve daemon speaks — and results render as an aligned table,
// JSON, or CSV via internal/report.
//
// Usage:
//
//	scenarios -list                             # the scenario library
//	scenarios -list -filter mono                # subset by substring
//	scenarios -run urban-8cam -frames 64 -json  # one scenario, machine-readable
//	scenarios -all -csv -o results.csv          # every scenario, CSV artifact
//	                                            # (-o refuses to overwrite without -force)
//	scenarios -spec custom.json                 # a spec from a JSON file
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"mcmnpu/internal/api"
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
	fs := flag.NewFlagSet("scenarios", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list the scenario library")
		filter   = fs.String("filter", "", "substring filter for -list/-all")
		runName  = fs.String("run", "", "run one named scenario")
		all      = fs.Bool("all", false, "run every (filtered) scenario")
		specFile = fs.String("spec", "", "run a scenario spec from a JSON file")
		frames   = fs.Int("frames", 0, "frame budget override (0 = scenario default)")
		window   = fs.Int("window", scenario.DefaultWindowFrames, "trace-window size in frames")
		workers  = fs.Int("workers", 0, "worker count for the window pool (0 = NumCPU)")
		timeout  = fs.Duration("timeout", 0, "overall deadline (0 = none)")
	)
	var opts report.Options
	opts.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !*list && *runName == "" && !*all && *specFile == "" {
		fs.Usage()
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		specs := scenario.Filter(*filter)
		if len(specs) == 0 {
			fmt.Fprintf(stderr, "no scenario matches %q\n", *filter)
			return 2
		}
		art, err := opts.Open(stdout)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := opts.Emit(art, report.TableDoc{T: scenario.ListTable(specs)}); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	// Assemble the typed api request the selection flags describe.
	req := api.RunScenarioRequest{Frames: *frames, WindowFrames: *window}
	switch {
	case *specFile != "":
		data, err := os.ReadFile(*specFile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		sp, err := scenario.ParseSpec(data)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		req.Spec = &sp
	case *runName != "":
		req.Scenarios = []string{*runName}
	default: // -all
		specs := scenario.Filter(*filter)
		if len(specs) == 0 {
			fmt.Fprintf(stderr, "no scenario matches %q\n", *filter)
			return 2
		}
		for _, sp := range specs {
			req.Scenarios = append(req.Scenarios, sp.Name)
		}
	}
	if err := req.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// The -o artifact opens after input validation but before any
	// scenario runs: a stale artifact fails the run up front (never at
	// the end of a long -all batch), and a typo in the flags never
	// truncates an existing artifact under -force.
	art, err := opts.Open(stdout)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	resp, err := api.NewService(sweep.New(*workers)).RunScenario(ctx, &req)
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
