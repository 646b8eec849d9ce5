package nop

import (
	"slices"
	"testing"
)

// Property tests for the interconnect model: Hops is a metric on the
// mesh, routes realize exactly that metric, and the latency/energy
// models are monotone in both tensor size and hop count.

// gridCoords enumerates a (2r+1) x (2r+1) block around the origin —
// negative coordinates included so the metric properties are not an
// artifact of the first quadrant.
func gridCoords(r int) []Coord {
	var out []Coord
	for y := -r; y <= r; y++ {
		for x := -r; x <= r; x++ {
			out = append(out, Coord{X: x, Y: y})
		}
	}
	return out
}

func TestHopsIsAMetric(t *testing.T) {
	coords := gridCoords(3) // 49 coords -> 117k ordered triples
	for _, a := range coords {
		if Hops(a, a) != 0 {
			t.Fatalf("Hops(%v,%v) = %d; want 0", a, a, Hops(a, a))
		}
		for _, b := range coords {
			if a != b && Hops(a, b) <= 0 {
				t.Fatalf("Hops(%v,%v) = %d; want > 0 for distinct coords", a, b, Hops(a, b))
			}
			if Hops(a, b) != Hops(b, a) {
				t.Fatalf("symmetry: Hops(%v,%v)=%d != Hops(%v,%v)=%d",
					a, b, Hops(a, b), b, a, Hops(b, a))
			}
			for _, c := range coords {
				if Hops(a, c) > Hops(a, b)+Hops(b, c) {
					t.Fatalf("triangle: Hops(%v,%v)=%d > %d+%d via %v",
						a, c, Hops(a, c), Hops(a, b), Hops(b, c), b)
				}
			}
		}
	}
}

func TestRouteRealizesHops(t *testing.T) {
	coords := gridCoords(3)
	for _, a := range coords {
		for _, b := range coords {
			links := slices.Collect(Route(a, b))
			if len(links) != Hops(a, b) {
				t.Fatalf("Route(%v,%v) has %d links; Hops = %d", a, b, len(links), Hops(a, b))
			}
			cur := a
			for _, l := range links {
				if l.From != cur {
					t.Fatalf("Route(%v,%v) discontinuous at %v", a, b, l)
				}
				if Hops(l.From, l.To) != 1 {
					t.Fatalf("Route(%v,%v) non-adjacent link %v", a, b, l)
				}
				cur = l.To
			}
			if len(links) > 0 && cur != b {
				t.Fatalf("Route(%v,%v) ends at %v", a, b, cur)
			}
		}
	}
}

func TestLatencyMonotoneInBytes(t *testing.T) {
	p := DefaultParams()
	for hops := 1; hops <= 8; hops++ {
		prevLat, prevE := -1.0, -1.0
		for bytes := int64(1); bytes <= 1<<30; bytes *= 4 {
			lat := p.TransferLatencyMs(bytes, hops)
			e := p.TransferEnergyJ(bytes, hops)
			if lat <= 0 || e <= 0 {
				t.Fatalf("non-positive cost for bytes=%d hops=%d", bytes, hops)
			}
			if lat < prevLat || e < prevE {
				t.Fatalf("cost decreased growing tensor to %d bytes at %d hops: lat %v -> %v, E %v -> %v",
					bytes, hops, prevLat, lat, prevE, e)
			}
			prevLat, prevE = lat, e
		}
	}
}

func TestLatencyMonotoneInHops(t *testing.T) {
	p := DefaultParams()
	for _, bytes := range []int64{1, 1024, 1 << 20, 1 << 28} {
		prevLat, prevE := -1.0, -1.0
		for hops := 1; hops <= 16; hops++ {
			lat := p.TransferLatencyMs(bytes, hops)
			e := p.TransferEnergyJ(bytes, hops)
			if lat < prevLat || e < prevE {
				t.Fatalf("cost decreased adding a hop (bytes=%d hops=%d): lat %v -> %v, E %v -> %v",
					bytes, hops, prevLat, lat, prevE, e)
			}
			prevLat, prevE = lat, e
		}
	}
}

func TestZeroTransferIsFree(t *testing.T) {
	p := DefaultParams()
	for _, c := range []struct{ bytes, hops int64 }{{0, 4}, {1024, 0}, {0, 0}, {-5, 3}, {100, -2}} {
		if lat := p.TransferLatencyMs(c.bytes, int(c.hops)); lat != 0 {
			t.Errorf("TransferLatencyMs(%d,%d) = %v; want 0", c.bytes, c.hops, lat)
		}
		if e := p.TransferEnergyJ(c.bytes, int(c.hops)); e != 0 {
			t.Errorf("TransferEnergyJ(%d,%d) = %v; want 0", c.bytes, c.hops, e)
		}
	}
}

func TestEvalConsistentWithParts(t *testing.T) {
	p := DefaultParams()
	for _, a := range gridCoords(2) {
		for _, b := range gridCoords(2) {
			tr := Transfer{Src: a, Dst: b, Bytes: 1 << 16}
			c := p.Eval(tr)
			if c.Hops != Hops(a, b) {
				t.Fatalf("Eval hops %d != Hops %d", c.Hops, Hops(a, b))
			}
			if c.LatencyMs != p.TransferLatencyMs(tr.Bytes, c.Hops) ||
				c.EnergyJ != p.TransferEnergyJ(tr.Bytes, c.Hops) {
				t.Fatalf("Eval(%v) disagrees with its parts: %+v", tr, c)
			}
		}
	}
}
