// Chiplet profiles: a ChipProfile is the declarative form of an
// accelerator configuration — the per-type TOPS / energy-per-MAC /
// GLB-capacity knobs a heterogeneous package mixes — from which
// Chiplet() instantiates a validated Accel. The chiplet package's
// built-in type library is a table of these profiles; SimbaChiplet is
// the calibrated paper profile expressed the same way.
package costmodel

import (
	"fmt"

	"mcmnpu/internal/dataflow"
)

// ChipProfile parameterizes one chiplet type. The zero-valued Energy
// falls back to DefaultEnergy(); MACpJ, when positive, overrides the
// table's per-MAC cost (the knob heterogeneous type libraries actually
// vary — denser dies pay more per MAC, efficiency dies less).
type ChipProfile struct {
	Name           string
	PEs            int64
	ArrayH, ArrayW int64
	FreqGHz        float64

	GLBReadBW   float64 // bytes/cycle, shared in+wt+out port
	PsumBW      float64 // bytes/cycle, WS partial-sum spill port
	DRAMBW      float64 // bytes/cycle visible to this die
	GLBBytes    int64   // weight-residency capacity
	VectorLanes int64

	MACpJ float64 // per-MAC energy override (0 keeps DefaultEnergy)
}

// Chiplet instantiates the profile as an accelerator with the given
// dataflow style. The result is validated; a malformed profile is a
// programming error in the type library, so it panics like the
// presets do.
func (p ChipProfile) Chiplet(style dataflow.Style) *Accel {
	e := DefaultEnergy()
	if p.MACpJ > 0 {
		e.MACpJ = p.MACpJ
	}
	a := &Accel{
		Name:        fmt.Sprintf("%s-%d-%v", p.Name, p.PEs, style),
		PEs:         p.PEs,
		ArrayH:      p.ArrayH,
		ArrayW:      p.ArrayW,
		Style:       style,
		FreqGHz:     p.FreqGHz,
		GLBReadBW:   p.GLBReadBW,
		PsumBW:      p.PsumBW,
		DRAMBW:      p.DRAMBW,
		GLBBytes:    p.GLBBytes,
		VectorLanes: p.VectorLanes,
		Energy:      e,
	}
	if err := a.Validate(); err != nil {
		panic(err)
	}
	return a
}

// SimbaProfile is the paper's calibrated 256-PE chiplet expressed as a
// profile; SimbaChiplet(style) is SimbaProfile().Chiplet(style).
func SimbaProfile() ChipProfile {
	return ChipProfile{
		Name:        "simba",
		PEs:         256,
		ArrayH:      16,
		ArrayW:      16,
		FreqGHz:     2.0,
		GLBReadBW:   simbaGLBReadBW,
		PsumBW:      8,
		DRAMBW:      16,
		GLBBytes:    2 << 20,
		VectorLanes: 16,
	}
}
