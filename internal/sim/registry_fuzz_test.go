package sim_test

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sched"
	"mcmnpu/internal/sim"
)

// registrySchedules builds each registry scenario's schedule once per
// test binary: the fuzz target runs thousands of inputs over ten
// schedules.
var registrySchedules = sync.OnceValues(func() ([]*sched.Schedule, error) {
	cache := costmodel.NewCache()
	var out []*sched.Schedule
	for _, sp := range scenario.Registry() {
		p, err := scenario.Prepare(sp, cache)
		if err != nil {
			return nil, err
		}
		out = append(out, p.Schedule)
	}
	return out, nil
})

// FuzzRunMatchesGreedy is the differential test of the event loop over
// the scenario library: Graph.Run must return exactly RunGreedy's Result
// for any registry schedule, frame count and arrival model — including
// non-monotone arrivals, where jitter lets a later frame set become
// ready before an earlier one, and jitter-free ones, where many starts
// tie. Inputs fold into their domains: scenario index mod 10, frames in
// [1, 24], generator FPS in (0, 1000] and jitter in [0, 1000] ms.
func FuzzRunMatchesGreedy(f *testing.F) {
	reg := scenario.Registry()
	for i, sp := range reg {
		for _, frames := range []int{1, 3, 16} {
			for _, seed := range []uint64{1, 2} {
				f.Add(uint8(i), frames, sp.CameraFPS, sp.JitterMs, seed)
			}
		}
		for _, frames := range []int{3, 16} {
			f.Add(uint8(i), frames, 200.0, 40.0, uint64(3))
			f.Add(uint8(i), frames, 1000.0, 1000.0, uint64(4))
			f.Add(uint8(i), frames, sp.CameraFPS, 0.0, uint64(5))
		}
	}
	f.Fuzz(func(t *testing.T, idx uint8, frames int, fps, jitter float64, seed uint64) {
		if math.IsNaN(fps) || math.IsInf(fps, 0) || math.IsNaN(jitter) || math.IsInf(jitter, 0) {
			t.Skip("non-finite trace parameters")
		}
		schedules, err := registrySchedules()
		if err != nil {
			t.Fatal(err)
		}
		i := int(idx) % len(reg)
		if frames %= 24; frames <= 0 {
			frames += 24
		}
		if fps <= 0 || fps > 1000 {
			fps = 1000 - math.Mod(math.Abs(fps), 1000)
		}
		if jitter < 0 || jitter > 1000 {
			jitter = math.Mod(math.Abs(jitter), 1000)
		}
		gen := reg[i].Generator(seed)
		gen.FPS, gen.JitterMs = fps, jitter

		s := schedules[i]
		g, err := sim.Prepare(s)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := g.Run(frames, gen)
		if err != nil {
			t.Fatalf("%s/%d: event-driven: %v", reg[i].Name, frames, err)
		}
		gr, err := sim.RunGreedy(s, frames, gen)
		if err != nil {
			t.Fatalf("%s/%d: greedy: %v", reg[i].Name, frames, err)
		}
		if !reflect.DeepEqual(ev, gr) {
			t.Errorf("%s, %d frames at %g FPS, jitter %g ms, seed %d: engines diverged\nevent-driven: %+v\ngreedy:       %+v",
				reg[i].Name, frames, fps, jitter, seed, ev, gr)
		}
	})
}

// TestRunMatchesGreedyAtWindowSize holds the two engines together on
// one 64-frame window of every registry scenario, generated as the
// scenario runner generates window 0: the window size the streaming
// benchmark runs, where an overloaded schedule (ws-dataflow-8cam)
// builds the deepest wait queues. FuzzRunMatchesGreedy folds frames
// into [1, 24], short of that backlog. The race detector slows the
// quadratic reference enough that a -race run keeps two scenarios,
// ws-dataflow-8cam among them.
func TestRunMatchesGreedyAtWindowSize(t *testing.T) {
	const frames = 64
	schedules, err := registrySchedules()
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range scenario.Registry() {
		if raceEnabled && sp.Name != "ws-dataflow-8cam" && sp.Name != "urban-8cam" {
			continue
		}
		t.Run(sp.Name, func(t *testing.T) {
			g, err := sim.Prepare(schedules[i])
			if err != nil {
				t.Fatal(err)
			}
			gen := sp.WindowGenerator(0)
			ev, err := g.Run(frames, gen)
			if err != nil {
				t.Fatalf("event-driven: %v", err)
			}
			gr, err := sim.RunGreedy(schedules[i], frames, gen)
			if err != nil {
				t.Fatalf("greedy: %v", err)
			}
			if !reflect.DeepEqual(ev, gr) {
				t.Errorf("engines diverged\nevent-driven: %+v\ngreedy:       %+v", ev, gr)
			}
		})
	}
}
