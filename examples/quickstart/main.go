// Quickstart: build the Tesla-Autopilot-style perception pipeline,
// schedule it on the 6x6 Simba-like multi-chiplet NPU with the paper's
// throughput-matching algorithm, and report throughput, energy and
// utilization — then validate the analytical numbers in the
// discrete-event simulator.
package main

import (
	"fmt"
	"log"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/pipeline"
	"mcmnpu/internal/sched"
	"mcmnpu/internal/sim"
	"mcmnpu/internal/trace"
	"mcmnpu/internal/workloads"
)

func main() {
	p, err := workloads.Perception(workloads.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 1. Run Algorithm 1 (quadrant allocation + recursive sharding).
	s, err := sched.Build(p, chiplet.Simba36(dataflow.OS), sched.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Throughput-matched schedule on", s.MCM.Name)
	fmt.Printf("  base pipelining latency (FE+BFPN): %.1f ms\n", s.BaseMs)
	for i := range s.Pipeline.Stages {
		ss := s.Stages[i]
		fmt.Printf("  stage %-8s  chiplets=%d  pipe=%6.1f ms  E2E=%6.1f ms\n",
			ss.Name, len(ss.Pool), ss.PipeLatMs, ss.E2EMs)
	}

	// 2. Analytical metrics under layerwise pipelining.
	m := pipeline.Compute(s, pipeline.Layerwise)
	fmt.Printf("\nanalytical: %.1f FPS, %.3f J/frame, EDP %.1f ms*J, util %.1f%%\n",
		m.FPS, m.EnergyJ, m.EDP, m.UtilPct)

	// 3. Discrete-event validation with synthetic 30 FPS camera streams.
	r, err := sim.Run(s, 16, trace.NewGenerator(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated:  %.1f FPS steady-state (interval %.1f ms), util %.1f%%\n",
		r.ThroughputFPS, r.SteadyIntervalMs, r.UtilPct)

	fmt.Printf("\nsustains 10 FPS perception? %v\n", m.FPS >= 10)
}
