// Heterogeneous integration: explore mixing weight-stationary
// (NVDLA-like) chiplets into the output-stationary trunks quadrant, as
// in the paper's §IV-C design-space exploration (Table I). The search
// discovers on its own that the detection trunks are the right networks
// to move onto WS silicon.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"mcmnpu/internal/experiments"
	"mcmnpu/internal/sweep"
	"mcmnpu/internal/workloads"
)

func main() {
	cfg := workloads.DefaultConfig()
	cfg.LaneContext = 0.6 // the operating point Fig 11 selects
	eng := sweep.New(0)

	// Full Table I (OS / WS / Het(2) / Het(4)). The space scores each
	// WS-count pin once; the sweep below reuses those scores.
	space := experiments.TableISpace(eng, cfg, 85)
	t1, err := experiments.TableIOn(context.Background(), space)
	if err != nil {
		log.Fatal(err)
	}
	t1.Table().Render(os.Stdout)

	// Sweep every WS count to see where the EDP optimum sits.
	fmt.Println("\nWS-chiplet sweep (9-chiplet quadrant, Lcstr 85 ms):")
	bestEDP, bestN := 0.0, 0
	for n := 0; n <= 6; n++ {
		r := space.Best(n)
		marker := ""
		if r.Feasible && (bestN == 0 && n == 0 || r.EDP < bestEDP) {
			bestEDP, bestN = r.EDP, n
			marker = "  <- best so far"
		}
		fmt.Printf("  %-7s pipe %6.1f ms  energy %7.4f J  EDP %6.2f  feasible=%-5v  WS nets: %d%s\n",
			r.Name, r.PipeLatMs, r.EnergyJ, r.EDP, r.Feasible, len(r.WSNets), marker)
	}
	fmt.Printf("\nEDP-optimal heterogeneous mix: %d WS chiplets (EDP %.2f ms*J)\n", bestN, bestEDP)

	r := space.Best(2)
	fmt.Println("\nnetworks the search placed on WS chiplets:")
	for _, n := range r.WSNets {
		fmt.Println("  -", n)
	}
	fmt.Println("(the paper's finding: WS chiplets are predominantly assigned to DET_TR)")
}
