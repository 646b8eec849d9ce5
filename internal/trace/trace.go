// Package trace generates synthetic sensor streams standing in for the
// vehicle's camera rig: 8 cameras at 30 FPS with bounded arrival jitter,
// plus telemetry ticks. The simulator is data-value agnostic — only
// shapes, sizes and timing matter — so a deterministic seeded generator
// exercises exactly the code paths real captures would.
package trace

import (
	"cmp"
	"fmt"
	"slices"
)

// Frame is one camera capture event.
type Frame struct {
	Seq       int     // frame sequence number (shared across cameras)
	Camera    int     // camera index, 0-based
	ArrivalMs float64 // arrival at the NPU ingress
	Bytes     int64   // encoded size entering the ISP
}

// Generator produces deterministic frame streams. Generation is
// stateless: every call derives its random stream from the stored seed
// without mutating it, so repeated Frames/FrameSets calls on one
// generator return identical sequences (a generator can be shared
// across sim.Run invocations and comparisons reproduce exactly).
type Generator struct {
	Cameras   int
	FPS       float64
	JitterMs  float64 // max absolute per-frame arrival jitter
	FrameSize int64   // bytes per frame (720p YUV420 by default)
	seed      uint64
}

// NewGenerator builds a generator with the paper's sensor setup
// (8 cameras, 720p @ 30 FPS).
func NewGenerator(seed uint64) *Generator {
	return &Generator{
		Cameras:   8,
		FPS:       30,
		JitterMs:  1.5,
		FrameSize: 720 * 1280 * 3 / 2,
		seed:      seed,
	}
}

// rng is a SplitMix64 stream — tiny, deterministic, stdlib-free. Each
// Generator method runs its own rng copied from the seed, leaving the
// generator untouched.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uniform returns a deterministic float in [-1, 1).
func (r *rng) uniform() float64 {
	return float64(int64(r.next()>>11))/float64(1<<52) - 1
}

// Frames produces n frame sets (n * Cameras events) ordered by arrival.
// Arrival order within a frame set can interleave, and with jitter
// beyond half a period so can frame sets; the sort is stable, so ties
// keep generation order (Seq, then Camera).
func (g *Generator) Frames(n int) []Frame {
	out := g.frames(n)
	slices.SortStableFunc(out, func(a, b Frame) int { return cmp.Compare(a.ArrivalMs, b.ArrivalMs) })
	return out
}

// frames generates n frame sets in generation order (Seq, then Camera).
func (g *Generator) frames(n int) []Frame {
	if n <= 0 || g.Cameras <= 0 || g.FPS <= 0 {
		return nil
	}
	r := rng{state: g.seed}
	period := 1e3 / g.FPS
	out := make([]Frame, 0, n*g.Cameras)
	for seq := 0; seq < n; seq++ {
		base := float64(seq) * period
		for cam := 0; cam < g.Cameras; cam++ {
			arr := base + r.uniform()*g.JitterMs
			if arr < 0 {
				arr = 0
			}
			out = append(out, Frame{Seq: seq, Camera: cam, ArrivalMs: arr, Bytes: g.FrameSize})
		}
	}
	return out
}

// SetArrival describes when a full 8-camera frame set is ready (the
// pipeline consumes complete sets).
type SetArrival struct {
	Seq     int
	ReadyMs float64
}

// FrameSets reduces the stream to per-set readiness times (last camera's
// arrival gates the set). A maximum does not depend on order, so the
// stream is left unsorted.
func (g *Generator) FrameSets(n int) []SetArrival {
	frames := g.frames(n)
	ready := make(map[int]float64, n)
	for _, f := range frames {
		if f.ArrivalMs > ready[f.Seq] {
			ready[f.Seq] = f.ArrivalMs
		}
	}
	out := make([]SetArrival, 0, n)
	for seq := 0; seq < n; seq++ {
		out = append(out, SetArrival{Seq: seq, ReadyMs: ready[seq]})
	}
	return out
}

func (f Frame) String() string {
	return fmt.Sprintf("frame{seq=%d cam=%d t=%.2fms %dB}", f.Seq, f.Camera, f.ArrivalMs, f.Bytes)
}
