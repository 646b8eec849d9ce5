// Command sweep runs the paper's Table I design-space exploration (one
// serial scan per configuration pin on the engine's cost cache) and the
// multi-scenario experiment grid (camera count, temporal depth, NoP
// bandwidth, mesh size, frontier, scheduler tolerance, DSE Lcstr),
// whose points fan out across the engine's worker pool. Both actions
// execute through the internal/api service — the same typed request
// path the cmd/serve daemon speaks — and reports render as aligned
// text tables, JSON, or CSV via internal/report.
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
	"mcmnpu/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, writes to the given
// streams, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workers := fs.Int("workers", 0, "worker count (0 = NumCPU)")
	dseFlag := fs.Bool("dse", false, "Table I design-space exploration (a serial scan)")
	grid := fs.Bool("grid", false, "concurrent multi-scenario experiment grid")
	scenarios := fs.String("scenarios", "", "comma-separated scenario filter for -grid (default: all)")
	lcstr := fs.Float64("lcstr", api.DefaultLcstrMs, "latency constraint for -dse (ms)")
	timeout := fs.Duration("timeout", 0, "overall deadline (0 = none)")
	cacheStats := fs.Bool("cachestats", false, "print layer-cost cache hit/miss stats on exit")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	var opts report.Options
	opts.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if !*dseFlag && !*grid {
		fs.Usage()
		return 2
	}

	dseReq := api.DSERequest{LcstrMs: *lcstr}
	gridReq := api.GridSweepRequest{Scenarios: splitList(*scenarios)}
	if *dseFlag {
		if err := dseReq.Validate(); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if *grid {
		if err := gridReq.Validate(); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
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

	// The -o artifact opens after input validation but before any
	// computation, so a stale artifact fails the run up front.
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

	eng := sweep.New(*workers)
	svc := api.NewService(eng)

	var docs []report.Doc
	exit := 0
	if *dseFlag {
		resp, err := svc.DSE(ctx, &dseReq)
		if err != nil {
			art.Abort()
			fmt.Fprintln(stderr, err)
			return 1
		}
		docs = append(docs, resp)
	}
	if *grid {
		resp, err := svc.GridSweep(ctx, &gridReq)
		if err != nil {
			art.Abort()
			fmt.Fprintln(stderr, err)
			return 1
		}
		for _, g := range resp.Results {
			if g.Err != "" {
				fmt.Fprintf(stderr, "scenario %s: %s\n", g.Scenario, g.Err)
				exit = 1
				continue
			}
			docs = append(docs, g)
		}
	}
	if err := opts.Emit(art, docs...); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	printCacheStats(stderr, eng, *cacheStats)
	return exit
}

// printCacheStats reports the engine's layer-cost cache: every
// evaluation of a run (Table I's cost table and all grid scenarios)
// memoizes there.
func printCacheStats(w io.Writer, eng *sweep.Engine, enabled bool) {
	if !enabled {
		return
	}
	s := eng.Cache().Stats()
	total := s.Hits + s.Misses
	pct := 0.0
	if total > 0 {
		pct = float64(s.Hits) / float64(total) * 100
	}
	fmt.Fprintf(w, "engine layer-cost cache: %d hits / %d misses (%.1f%% hit rate, %d entries)\n",
		s.Hits, s.Misses, pct, s.Entries)
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
