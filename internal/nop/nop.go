// Package nop models the Network-on-Package interconnect of a
// multi-chiplet module: XY (dimension-ordered) routing on a 2-D mesh,
// with the paper's cost model — transfer latency is the serialization
// time over the link bandwidth multiplied by the hop count
// (store-and-forward) plus a fixed per-hop router latency, and transfer
// energy is bits x per-bit link energy x hops.
//
// Paper parameters (Simba microarchitecture scaled to 28 nm):
// 100 GB/s/chiplet link bandwidth, 35 ns/hop, 2.04 pJ/bit.
package nop

import (
	"fmt"
	"iter"
	"math"
)

// Coord is a chiplet position on the package mesh.
type Coord struct{ X, Y int }

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Hops returns the XY-routing hop count between two chiplets (Manhattan
// distance; 0 for same chiplet).
func Hops(a, b Coord) int {
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Params is the NoP cost model.
type Params struct {
	LinkBWGBs    float64 // per-link bandwidth, GB/s
	HopLatencyNs float64 // per-hop router+link latency, ns
	EnergyPJBit  float64 // per-bit per-hop transfer energy, pJ
}

// DefaultParams returns the paper's NoP parameters.
func DefaultParams() Params {
	return Params{LinkBWGBs: 100, HopLatencyNs: 35, EnergyPJBit: 2.04}
}

// Validate reports configuration errors: every field must be finite,
// the link bandwidth positive and the others non-negative. The
// comparisons are written so that NaN fails them.
func (p Params) Validate() error {
	if !(p.LinkBWGBs > 0 && p.HopLatencyNs >= 0 && p.EnergyPJBit >= 0) ||
		math.IsInf(p.LinkBWGBs, 1) || math.IsInf(p.HopLatencyNs, 1) || math.IsInf(p.EnergyPJBit, 1) {
		return fmt.Errorf("nop: invalid params %+v", p)
	}
	return nil
}

// TransferLatencyMs returns the latency of moving `bytes` over `hops`
// mesh hops, per the paper's model: size/BW x hops + hop latency.
func (p Params) TransferLatencyMs(bytes int64, hops int) float64 {
	if hops <= 0 || bytes <= 0 {
		return 0
	}
	serializationMs := float64(bytes) / (p.LinkBWGBs * 1e9) * 1e3
	return serializationMs*float64(hops) + p.HopLatencyNs*float64(hops)*1e-6
}

// TransferEnergyJ returns the energy of moving `bytes` over `hops` hops.
func (p Params) TransferEnergyJ(bytes int64, hops int) float64 {
	if hops <= 0 || bytes <= 0 {
		return 0
	}
	return float64(bytes) * 8 * p.EnergyPJBit * float64(hops) * 1e-12
}

// Link is a directed mesh link between adjacent chiplets.
type Link struct{ From, To Coord }

// Route yields the links of the XY route (X first, then Y) from a to
// b, in order; none for a == b.
func Route(a, b Coord) iter.Seq[Link] {
	return func(yield func(Link) bool) {
		for cur := a; cur != b; {
			next := cur
			switch {
			case b.X > cur.X:
				next.X++
			case b.X < cur.X:
				next.X--
			case b.Y > cur.Y:
				next.Y++
			default:
				next.Y--
			}
			if !yield(Link{cur, next}) {
				return
			}
			cur = next
		}
	}
}

// Transfer is one point-to-point NoP movement.
type Transfer struct {
	Src, Dst Coord
	Bytes    int64
	Label    string // producing layer, for reports
}

// Cost summarizes a transfer under the cost model.
type Cost struct {
	Hops      int
	LatencyMs float64
	EnergyJ   float64
}

// Eval costs a single transfer.
func (p Params) Eval(t Transfer) Cost {
	h := Hops(t.Src, t.Dst)
	return Cost{
		Hops:      h,
		LatencyMs: p.TransferLatencyMs(t.Bytes, h),
		EnergyJ:   p.TransferEnergyJ(t.Bytes, h),
	}
}
