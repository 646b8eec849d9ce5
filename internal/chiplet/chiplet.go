// Package chiplet describes multi-chip-module (MCM) NPU packages: a 2-D
// mesh of accelerator chiplets plus a Network-on-Package cost model.
// Presets cover the paper's configurations — the 6x6 Simba-like package
// (36 x 256 PEs = 9,216 PEs, matching the Tesla FSD NPU budget), the
// monolithic and few-chip baselines of Table II, and the dual-NPU
// 72-chiplet arrangement of Fig 10.
package chiplet

import (
	"fmt"

	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/nop"
)

// MCM is a package of chiplets on a GridW x GridH mesh. Chiplets are
// stored row-major: the chiplet at c has ordinal Ord(c) = c.Y*GridW+c.X.
type MCM struct {
	Name   string
	GridW  int
	GridH  int
	NoP    nop.Params
	accels []*costmodel.Accel // indexed by ordinal
}

// New builds an MCM with one chiplet per mesh position, created by mk,
// and validates each. Every constructor in this package hands all
// positions of one chiplet configuration a single shared accelerator,
// so two of their chiplets are equivalent exactly when they share a
// pointer.
func New(name string, gridW, gridH int, p nop.Params, mk func(nop.Coord) *costmodel.Accel) (*MCM, error) {
	if gridW <= 0 || gridH <= 0 {
		return nil, fmt.Errorf("chiplet: invalid grid %dx%d", gridW, gridH)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &MCM{Name: name, GridW: gridW, GridH: gridH, NoP: p,
		accels: make([]*costmodel.Accel, 0, gridW*gridH)}
	for y := 0; y < gridH; y++ {
		for x := 0; x < gridW; x++ {
			c := nop.Coord{X: x, Y: y}
			a := mk(c)
			if err := a.Validate(); err != nil {
				return nil, fmt.Errorf("chiplet %v: %w", c, err)
			}
			m.accels = append(m.accels, a)
		}
	}
	return m, nil
}

// Ord returns the row-major ordinal of c, c.Y*GridW + c.X, which is
// c's index in Coords(); -1 when c is off the mesh.
func (m *MCM) Ord(c nop.Coord) int {
	if c.X < 0 || c.X >= m.GridW || c.Y < 0 || c.Y >= m.GridH {
		return -1
	}
	return c.Y*m.GridW + c.X
}

// At returns the chiplet at c (nil if off the mesh).
func (m *MCM) At(c nop.Coord) *costmodel.Accel {
	if i := m.Ord(c); i >= 0 {
		return m.accels[i]
	}
	return nil
}

// Coords returns all positions in row-major (ordinal) order.
func (m *MCM) Coords() []nop.Coord {
	out := make([]nop.Coord, 0, len(m.accels))
	for y := 0; y < m.GridH; y++ {
		for x := 0; x < m.GridW; x++ {
			out = append(out, nop.Coord{X: x, Y: y})
		}
	}
	return out
}

// Chiplets returns the chiplet count.
func (m *MCM) Chiplets() int { return len(m.accels) }

// TotalPEs sums PEs across all chiplets.
func (m *MCM) TotalPEs() int64 {
	var n int64
	for _, a := range m.accels {
		n += a.PEs
	}
	return n
}

// PeakMACs returns the aggregate MAC throughput (MACs/s). Summation
// runs in row-major order: float addition is not associative, so on
// heterogeneous packages any other order could change the last bits
// (rule D1).
func (m *MCM) PeakMACs() float64 {
	var v float64
	for _, a := range m.accels {
		v += a.PeakMACs()
	}
	return v
}

// Partitions splits the mesh into n contiguous column-band partitions
// (n must divide the chiplet count). For the 6x6 package with n=4 this
// yields the paper's four 9-chiplet quadrants (3x3 blocks, ordered
// left-right then top-bottom).
func (m *MCM) Partitions(n int) ([][]nop.Coord, error) {
	total := m.Chiplets()
	if n <= 0 || total%n != 0 {
		return nil, fmt.Errorf("chiplet: cannot split %d chiplets into %d partitions", total, n)
	}
	per := total / n
	// Quadrant-style split when the grid factors evenly into blocks.
	if bw, bh, ok := blockDims(m.GridW, m.GridH, n, per); ok {
		var parts [][]nop.Coord
		for by := 0; by < m.GridH/bh; by++ {
			for bx := 0; bx < m.GridW/bw; bx++ {
				var part []nop.Coord
				for y := by * bh; y < (by+1)*bh; y++ {
					for x := bx * bw; x < (bx+1)*bw; x++ {
						part = append(part, nop.Coord{X: x, Y: y})
					}
				}
				parts = append(parts, part)
			}
		}
		return parts, nil
	}
	// Fallback: row-major slices.
	coords := m.Coords()
	parts := make([][]nop.Coord, 0, n)
	for i := 0; i < n; i++ {
		parts = append(parts, coords[i*per:(i+1)*per])
	}
	return parts, nil
}

// blockDims finds a bw x bh block shape tiling the grid into n blocks of
// `per` chiplets, preferring square-ish blocks.
func blockDims(gw, gh, n, per int) (bw, bh int, ok bool) {
	best := -1
	for cand := 1; cand <= gw; cand++ {
		if per%cand != 0 {
			continue
		}
		ch := per / cand
		if ch > gh || gw%cand != 0 || gh%ch != 0 {
			continue
		}
		if (gw/cand)*(gh/ch) != n {
			continue
		}
		score := -absInt(cand - ch) // prefer square
		if best == -1 || score > best {
			best, bw, bh = score, cand, ch
		}
	}
	return bw, bh, best != -1
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Presets ---------------------------------------------------------------

// Simba36 is the paper's 6x6 package of 256-PE chiplets: a typed mesh
// of the library's shared simba accelerator.
func Simba36(style dataflow.Style) *MCM {
	return must(NewTyped("simba-6x6", 6, 6, nop.DefaultParams(), style, nil))
}

// DualSimba72 is the Fig 10 configuration: both FSD NPUs active, two
// 6x6 Simba packages side by side (12x6 mesh, 72 chiplets).
func DualSimba72(style dataflow.Style) *MCM {
	return must(NewTyped("dual-simba-12x6", 12, 6, nop.DefaultParams(), style, nil))
}

// Baseline returns the Table II baselines for a 9,216-PE budget split
// into `parts` (1, 2 or 4) equal monolithic dies, which share one
// accelerator.
func Baseline(parts int, style dataflow.Style) *MCM {
	gw, gh := 1, 1
	switch parts {
	case 1:
	case 2:
		gw = 2
	case 4:
		gw, gh = 2, 2
	default:
		panic(fmt.Sprintf("chiplet: unsupported baseline split %d", parts))
	}
	pes := int64(9216 / parts)
	a := costmodel.Monolithic(fmt.Sprintf("mono-%d", pes), pes, style)
	return must(New(fmt.Sprintf("baseline-%dx%d", parts, pes), gw, gh, nop.DefaultParams(),
		func(nop.Coord) *costmodel.Accel { return a }))
}

// must returns a preset's package; a preset that fails to build is a
// programming error.
func must(m *MCM, err error) *MCM {
	if err != nil {
		panic(err)
	}
	return m
}
