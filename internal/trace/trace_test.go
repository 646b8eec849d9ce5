package trace

import (
	"cmp"
	"testing"
	"testing/quick"
)

func TestFramesDeterministic(t *testing.T) {
	a := NewGenerator(42).Frames(10)
	b := NewGenerator(42).Frames(10)
	if len(a) != len(b) || len(a) != 80 {
		t.Fatalf("lengths: %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := NewGenerator(43).Frames(10)
	same := true
	for i := range a {
		if a[i].ArrivalMs != c[i].ArrivalMs {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

// Regression: generation used to mutate the seed, so two successive
// calls on one generator saw different arrivals — a reused generator
// made repeated sim.Run comparisons irreproducible.
func TestGeneratorReuseDeterministic(t *testing.T) {
	g := NewGenerator(11)
	fa, fb := g.Frames(6), g.Frames(6)
	if len(fa) != len(fb) {
		t.Fatalf("lengths differ: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("frame %d differs on reuse: %v vs %v", i, fa[i], fb[i])
		}
	}
	sa, sb := g.FrameSets(6), g.FrameSets(6)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("set %d differs on reuse: %v vs %v", i, sa[i], sb[i])
		}
	}
	// Interleaving calls must not perturb either stream.
	fc := g.Frames(6)
	for i := range fa {
		if fa[i] != fc[i] {
			t.Fatalf("frame %d differs after interleaved calls", i)
		}
	}
}

// Frames is a stable sort by arrival: ties keep generation order
// (Seq, then Camera), also when jitter beyond half a period lets frame
// sets interleave. Regression: the former insertion sort was quadratic
// at 1000 FPS with a second of jitter.
func TestFramesSortedAndNonNegative(t *testing.T) {
	rates := []struct{ fps, jitter float64 }{
		{4, 1.5}, {30, 1.5}, {200, 40}, {1000, 1000}, {10, 0},
	}
	for _, rt := range rates {
		for seed := uint64(1); seed <= 40; seed++ {
			g := NewGenerator(seed)
			g.FPS, g.JitterMs = rt.fps, rt.jitter
			fs := g.Frames(30)
			for i := 1; i < len(fs); i++ {
				p, f := fs[i-1], fs[i]
				if cmp.Or(cmp.Compare(p.ArrivalMs, f.ArrivalMs),
					cmp.Compare(p.Seq, f.Seq), cmp.Compare(p.Camera, f.Camera)) >= 0 {
					t.Fatalf("%g FPS, jitter %g ms, seed %d: %v before %v", rt.fps, rt.jitter, seed, p, f)
				}
			}
			for _, f := range fs {
				if f.ArrivalMs < 0 || f.Bytes <= 0 {
					t.Errorf("bad frame %v", f)
				}
			}
		}
	}
}

func TestFrameRate(t *testing.T) {
	g := NewGenerator(1)
	fs := g.Frames(31)
	// 30 FPS: last frame set near 1000 ms.
	var last float64
	for _, f := range fs {
		if f.Seq == 30 && f.ArrivalMs > last {
			last = f.ArrivalMs
		}
	}
	if last < 990 || last > 1010 {
		t.Errorf("frame 30 arrives at %.1f ms, want ~1000", last)
	}
}

func TestFrameSets(t *testing.T) {
	g := NewGenerator(3)
	sets := g.FrameSets(5)
	if len(sets) != 5 {
		t.Fatalf("sets = %d", len(sets))
	}
	for i, s := range sets {
		if s.Seq != i {
			t.Errorf("set %d has seq %d", i, s.Seq)
		}
	}
	// Set readiness = max camera arrival, so consecutive sets are
	// ~33 ms apart.
	gap := sets[1].ReadyMs - sets[0].ReadyMs
	if gap < 25 || gap > 42 {
		t.Errorf("set gap = %.1f ms, want ~33", gap)
	}

	// FrameSets reads the unsorted stream; its maxima must match the
	// sorted one's even when sets interleave.
	g.FPS, g.JitterMs = 1000, 1000
	latest := map[int]float64{}
	for _, f := range g.Frames(64) {
		latest[f.Seq] = f.ArrivalMs // sorted: the last one seen is the latest
	}
	for _, s := range g.FrameSets(64) {
		if s.ReadyMs != latest[s.Seq] {
			t.Errorf("set %d ready at %g ms, latest arrival %g ms", s.Seq, s.ReadyMs, latest[s.Seq])
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	g := NewGenerator(1)
	if g.Frames(0) != nil {
		t.Error("zero counts should return nil")
	}
}

// Property: every frame set contains exactly Cameras frames.
func TestSetCompletenessProperty(t *testing.T) {
	f := func(seed uint16, n uint8) bool {
		count := int(n)%20 + 1
		g := NewGenerator(uint64(seed))
		fs := g.Frames(count)
		perSeq := map[int]int{}
		for _, fr := range fs {
			perSeq[fr.Seq]++
		}
		for seq := 0; seq < count; seq++ {
			if perSeq[seq] != g.Cameras {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
