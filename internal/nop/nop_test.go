package nop

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestHops(t *testing.T) {
	cases := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0}, Coord{0, 0}, 0},
		{Coord{0, 0}, Coord{3, 0}, 3},
		{Coord{0, 0}, Coord{0, 4}, 4},
		{Coord{1, 1}, Coord{4, 3}, 5},
		{Coord{5, 5}, Coord{0, 0}, 10},
	}
	for _, c := range cases {
		if got := Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.LinkBWGBs != 100 || p.HopLatencyNs != 35 || p.EnergyPJBit != 2.04 {
		t.Errorf("paper parameters changed: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if (Params{}).Validate() == nil {
		t.Error("zero params should be invalid")
	}
}

// TestValidateRejectsNonFinite: a NaN or infinite value in any field
// is invalid.
func TestValidateRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, p := range []Params{
			{LinkBWGBs: v, HopLatencyNs: 35, EnergyPJBit: 2.04},
			{LinkBWGBs: 100, HopLatencyNs: v, EnergyPJBit: 2.04},
			{LinkBWGBs: 100, HopLatencyNs: 35, EnergyPJBit: v},
		} {
			if p.Validate() == nil {
				t.Errorf("Validate accepted %+v", p)
			}
		}
	}
}

func TestTransferLatency(t *testing.T) {
	p := DefaultParams()
	// 1 MB over 1 hop: 1e6/100e9 s = 10 us = 0.01 ms, + 35 ns.
	got := p.TransferLatencyMs(1e6, 1)
	want := 0.01 + 35e-6
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("latency = %v, want %v", got, want)
	}
	// Store-and-forward: 2 hops doubles it (paper's model).
	if g2 := p.TransferLatencyMs(1e6, 2); math.Abs(g2-2*want) > 1e-9 {
		t.Errorf("2-hop latency = %v, want %v", g2, 2*want)
	}
	if p.TransferLatencyMs(0, 3) != 0 || p.TransferLatencyMs(100, 0) != 0 {
		t.Error("zero bytes or hops should cost nothing")
	}
}

func TestTransferEnergy(t *testing.T) {
	p := DefaultParams()
	// 1 byte over 1 hop = 8 bits * 2.04 pJ.
	want := 8 * 2.04 * 1e-12
	if got := p.TransferEnergyJ(1, 1); math.Abs(got-want) > 1e-24 {
		t.Errorf("energy = %v, want %v", got, want)
	}
}

func TestRoute(t *testing.T) {
	links := slices.Collect(Route(Coord{0, 0}, Coord{2, 1}))
	if len(links) != 3 {
		t.Fatalf("route length = %d, want 3", len(links))
	}
	// XY routing: X moves first.
	if links[0].To.X != 1 || links[0].To.Y != 0 {
		t.Errorf("first link should move in X: %+v", links[0])
	}
	if links[2].To != (Coord{2, 1}) {
		t.Errorf("route should end at destination: %+v", links[2])
	}
	if len(slices.Collect(Route(Coord{3, 3}, Coord{3, 3}))) != 0 {
		t.Error("self route should be empty")
	}
}

func TestEval(t *testing.T) {
	p := DefaultParams()
	c := p.Eval(Transfer{Src: Coord{0, 0}, Dst: Coord{2, 2}, Bytes: 1000})
	if c.Hops != 4 {
		t.Errorf("hops = %d", c.Hops)
	}
	if c.LatencyMs != p.TransferLatencyMs(1000, 4) || c.EnergyJ != p.TransferEnergyJ(1000, 4) {
		t.Errorf("cost %+v disagrees with the 4-hop transfer model", c)
	}
}

// Property: hop metric is symmetric and satisfies the triangle
// inequality.
func TestHopsMetricProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy uint8) bool {
		a := Coord{int(ax % 12), int(ay % 12)}
		b := Coord{int(bx % 12), int(by % 12)}
		c := Coord{int(cx % 12), int(cy % 12)}
		return Hops(a, b) == Hops(b, a) &&
			Hops(a, c) <= Hops(a, b)+Hops(b, c) &&
			(Hops(a, b) == 0) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: route length always equals the hop count.
func TestRouteLengthProperty(t *testing.T) {
	f := func(ax, ay, bx, by uint8) bool {
		a := Coord{int(ax % 10), int(ay % 10)}
		b := Coord{int(bx % 10), int(by % 10)}
		return len(slices.Collect(Route(a, b))) == Hops(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: energy is linear in bytes and hops.
func TestEnergyLinearityProperty(t *testing.T) {
	p := DefaultParams()
	f := func(bytes uint16, hops uint8) bool {
		b := int64(bytes) + 1
		h := int(hops)%8 + 1
		e1 := p.TransferEnergyJ(b, h)
		e2 := p.TransferEnergyJ(2*b, h)
		e3 := p.TransferEnergyJ(b, 2*h)
		return math.Abs(e2-2*e1) < 1e-18 && math.Abs(e3-2*e1) < 1e-18
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
