// Package dataflow models how a layer's loop nest maps onto a 2-D PE
// array under the two dataflow styles the paper studies: output
// stationary (OS, ShiDianNao-like) and weight stationary (WS,
// NVDLA-like). It produces per-wave wave counts, compute depth, operand
// traffic and spatial utilization; the costmodel package turns these
// into latency and energy.
//
// Terminology: a "wave" is one spatial mapping step — the array computes
// one tile of the output (OS) or holds one tile of the weight matrix
// (WS) for the wave's duration.
package dataflow

import (
	"fmt"

	"mcmnpu/internal/dnn"
	"mcmnpu/internal/tensor"
)

// Style selects the dataflow.
type Style int

const (
	// OS is the output-stationary (ShiDianNao-like) dataflow: output
	// tiles are pinned to PEs, weights and inputs stream per wave.
	OS Style = iota
	// WS is the weight-stationary (NVDLA-like) dataflow: weight tiles
	// are pinned to PEs, activations and partial sums stream per wave.
	WS
)

func (s Style) String() string {
	switch s {
	case OS:
		return "OS"
	case WS:
		return "WS"
	default:
		return fmt.Sprintf("style(%d)", int(s))
	}
}

// PsumBytes is the width of a partial-sum word (int32 accumulators).
const PsumBytes = 4

// Analysis summarizes the mapping of one layer onto one PE array.
// All traffic figures are bytes of GLB<->array movement at int8 operand
// width except partial sums, which move at PsumBytes.
type Analysis struct {
	Style Style

	Waves         int64   // spatial mapping steps
	ComputeCycles float64 // MAC cycles per wave (reduction or stream depth)

	// Per-wave GLB traffic on the shared read/write port.
	InBytesPerWave  float64
	WtBytesPerWave  float64
	OutBytesPerWave float64

	// Per-wave partial-sum spill traffic (WS only; separate port).
	PsumBytesPerWave float64

	// Totals across all waves.
	GLBBytes  float64 // in+wt+out over the shared port
	PsumTotal float64

	// Compulsory DRAM traffic for the layer: inputs and outputs once,
	// weights once (refetch, if the working set exceeds GLB capacity,
	// is applied by the costmodel).
	DRAMBytes float64

	// SpatialUtil is the fraction of PEs holding useful work, averaged
	// over waves (edge waste from non-divisible extents).
	SpatialUtil float64
}

// Analyze maps a compute layer onto an arrayH x arrayW PE array under
// the given style. Non-compute layers (pool/eltwise/softmax/...) are not
// MAC-array work; Analyze returns a zero-wave Analysis carrying only
// their compulsory traffic, and the costmodel charges their vector ops
// separately.
func Analyze(l *dnn.Layer, style Style, arrayH, arrayW int64) Analysis {
	if arrayH <= 0 || arrayW <= 0 {
		panic(fmt.Sprintf("dataflow: invalid array %dx%d", arrayH, arrayW))
	}
	a := Analysis{Style: style}
	a.DRAMBytes = float64(l.InputElems() + l.OutputElems() + l.Params())
	if !l.Kind.ComputeBound() {
		a.SpatialUtil = 1
		return a
	}
	n := l.Nest
	stride := l.Stride
	if stride <= 0 {
		stride = 1
	}
	switch style {
	case OS:
		analyzeOS(&a, n, stride, arrayH, arrayW)
	case WS:
		analyzeWS(&a, n, stride, arrayH, arrayW)
	default:
		panic(fmt.Sprintf("dataflow: unknown style %v", style))
	}
	return a
}

// analyzeOS pins output tiles: the array rows hold TileY=arrayH output
// pixels (linearized Y*X) and the columns TileK=arrayW output channels.
// Each wave accumulates its outputs over the full reduction (C*R*S
// cycles) while weights for the TileK channels and the input halo for
// the TileY pixels stream from GLB; outputs are written back once.
func analyzeOS(a *Analysis, n dnn.LoopNest, stride, arrayH, arrayW int64) {
	tileY := arrayH
	tileK := arrayW
	yx := n.Y * n.X
	wavesPerInst := tensor.CeilDiv(yx, tileY) * tensor.CeilDiv(n.K, tileK)
	a.Waves = n.Batch * wavesPerInst
	a.ComputeCycles = float64(n.C * n.R * n.S)

	// Unique input elements covering tileY contiguous output pixels of a
	// row: (tileY-1)*stride + R columns by S rows, times C channels.
	cols := (min64(tileY, yx)-1)*stride + n.R
	a.InBytesPerWave = float64(n.C * cols * n.S)
	a.WtBytesPerWave = float64(min64(tileK, n.K) * n.C * n.R * n.S)
	a.OutBytesPerWave = float64(min64(tileY, yx) * min64(tileK, n.K))
	a.finishTotals(n, arrayH*arrayW)
}

// analyzeWS pins weight tiles: the array holds a TileK x TileC slice of
// the weight tensor; activations stream through over Y*X*R*S cycles per
// wave, and partial sums spill to / reload from the GLB between
// consecutive C-tiles at PsumBytes width. Weights are fetched exactly
// once (maximal weight reuse — the WS energy advantage); the psum
// streaming is the WS latency penalty on reduction-deep GEMMs.
func analyzeWS(a *Analysis, n dnn.LoopNest, stride, arrayH, arrayW int64) {
	tileK := arrayH
	tileC := arrayW
	kTiles := tensor.CeilDiv(n.K, tileK)
	cTiles := tensor.CeilDiv(n.C, tileC)
	a.Waves = n.Batch * kTiles * cTiles
	a.ComputeCycles = float64(n.Y * n.X * n.R * n.S)

	yx := n.Y * n.X
	// Activations: each wave streams its C-tile's input plane; the R*S
	// taps reuse a line buffer, so the plane is fetched once per wave at
	// stride^2 density.
	a.InBytesPerWave = float64(min64(tileC, n.C)*yx) * float64(stride*stride)
	// Weights: fetched once per wave and never again.
	a.WtBytesPerWave = float64(min64(tileK, n.K) * min64(tileC, n.C) * n.R * n.S)
	// Partial sums: every wave beyond the first C-tile reloads and every
	// wave before the last spills, at accumulator width.
	spillFrac := 0.0
	if cTiles > 1 {
		spillFrac = 2 * float64(cTiles-1) / float64(cTiles)
	}
	a.PsumBytesPerWave = spillFrac * float64(min64(tileK, n.K)*yx) * PsumBytes
	a.OutBytesPerWave = float64(min64(tileK, n.K)*yx) / float64(cTiles)
	a.finishTotals(n, arrayH*arrayW)
}

func (a *Analysis) finishTotals(n dnn.LoopNest, pes int64) {
	w := float64(a.Waves)
	a.GLBBytes = w * (a.InBytesPerWave + a.WtBytesPerWave + a.OutBytesPerWave)
	a.PsumTotal = w * a.PsumBytesPerWave
	// Useful MAC slots over offered slots.
	offered := w * a.ComputeCycles * float64(pes)
	if offered > 0 {
		a.SpatialUtil = float64(n.MACs()) / offered
		if a.SpatialUtil > 1 {
			a.SpatialUtil = 1
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
