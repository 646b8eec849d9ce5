package sim

import (
	"fmt"

	"mcmnpu/internal/sched"
	"mcmnpu/internal/trace"
)

// RunGreedy is the O(n²) reference engine: greedy list scheduling that
// rescans every unfinished task per decision, picking the schedulable
// task with the earliest feasible start (ties broken by construction
// order, which gives FIFO within a chiplet). It is kept as the
// executable specification the event-driven Run is differentially
// tested and benchmarked against — the two must return bit-for-bit
// identical Results on any schedule.
func RunGreedy(s *sched.Schedule, frames int, gen *trace.Generator) (Result, error) {
	if frames <= 0 {
		return Result{}, fmt.Errorf("sim: non-positive frame count %d", frames)
	}
	if gen == nil {
		gen = trace.NewGenerator(1)
	}
	arrivals := gen.FrameSets(frames)

	g, err := Prepare(s)
	if err != nil {
		return Result{}, err
	}
	T := len(g.defs)
	n := frames * T
	var (
		done = make([]bool, n)
		end  = make([]float64, n)
		free = make([]float64, s.MCM.Chiplets())
		busy = make([]float64, s.MCM.Chiplets())
	)

	remaining := n
	for remaining > 0 {
		bestIdx := -1
		bestStart := 0.0
		for seq := 0; seq < n; seq++ {
			if done[seq] {
				continue
			}
			li := seq % T
			d := &g.defs[li]
			base := seq - li
			ready := arrivals[seq/T].ReadyMs
			schedulable := true
			for k := d.depOff; k < d.depEnd; k++ {
				dep := base + int(g.depList[k])
				if !done[dep] {
					schedulable = false
					break
				}
				if e := end[dep] + g.depExtra[k]; e > ready {
					ready = e
				}
			}
			if !schedulable {
				continue
			}
			start := ready
			for _, ci := range g.gangList[d.gangOff:d.gangEnd] {
				if free[ci] > start {
					start = free[ci]
				}
			}
			if bestIdx == -1 || start < bestStart {
				bestIdx, bestStart = seq, start
			}
		}
		if bestIdx == -1 {
			return Result{}, fmt.Errorf("sim: deadlock with %d tasks remaining", remaining)
		}
		d := &g.defs[bestIdx%T]
		done[bestIdx] = true
		end[bestIdx] = bestStart + d.durMs
		for _, ci := range g.gangList[d.gangOff:d.gangEnd] {
			free[ci] = end[bestIdx]
			busy[ci] += d.durMs
		}
		remaining--
	}

	return g.summarize(frames, T, arrivals, end, busy), nil
}
