// Package costmodel is an analytical DNN performance model in the style
// of MAESTRO (Kwon et al., MICRO'19): given a layer's loop nest, a
// dataflow (OS or WS) and an accelerator configuration, it derives
// latency, energy, traffic and utilization without simulating cycles.
//
// The latency model is wave-based: the dataflow package maps the layer
// onto the PE array as a sequence of waves; each wave's duration is the
// maximum of its compute depth and its operand-streaming times over the
// GLB, psum and DRAM ports (double buffering assumed, so streams overlap
// compute). The energy model charges per-MAC datapath energy plus
// per-byte costs at each memory level.
//
// Constants are calibrated against the per-chiplet figures published in
// the reproduced paper (a 256-PE, 2 GHz, output-stationary Simba-like
// chiplet: S_FUSE QKV 78.7 ms / attention 20.5 ms / FFN 236 ms, T_FUSE
// 165.6 / 36.4 / 490.2 ms); see EXPERIMENTS.md for the residuals.
package costmodel

import (
	"fmt"
	"math"

	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/dnn"
)

// EnergyParams are per-event energy costs (28 nm class, int8 datapath).
type EnergyParams struct {
	MACpJ      float64 // per MAC, incl. PE register-file movement
	GLBpJB     float64 // per byte moved over the global buffer port
	PsumpJB    float64 // per byte of WS partial-sum spill (accumulator SRAM)
	DRAMpJB    float64 // per byte of DRAM traffic
	VectorOppJ float64 // per vector (non-MAC) op
}

// DefaultEnergy is the calibrated 28 nm energy table.
func DefaultEnergy() EnergyParams {
	return EnergyParams{MACpJ: 0.30, GLBpJB: 3.0, PsumpJB: 0.8, DRAMpJB: 48, VectorOppJ: 0.4}
}

// Accel describes one accelerator (a chiplet, or a monolithic die).
//
// The GLB read/write port width is per-die, not per-PE: a package of
// many small chiplets aggregates one port per chiplet, which is the
// architectural reason the MCM out-performs an equal-PE monolithic die
// in the paper's Table II.
type Accel struct {
	Name           string
	PEs            int64
	ArrayH, ArrayW int64
	Style          dataflow.Style
	FreqGHz        float64

	GLBReadBW   float64 // bytes/cycle, shared in+wt+out port
	PsumBW      float64 // bytes/cycle, WS partial-sum spill port
	DRAMBW      float64 // bytes/cycle of DRAM bandwidth visible to this die
	GLBBytes    int64   // capacity available for weight residency
	VectorLanes int64   // vector-unit width for non-MAC ops

	Energy EnergyParams
}

// Validate checks the configuration.
func (a *Accel) Validate() error {
	if a.PEs <= 0 || a.ArrayH <= 0 || a.ArrayW <= 0 {
		return fmt.Errorf("costmodel: accel %q has non-positive dimensions", a.Name)
	}
	if a.ArrayH*a.ArrayW != a.PEs {
		return fmt.Errorf("costmodel: accel %q array %dx%d != %d PEs",
			a.Name, a.ArrayH, a.ArrayW, a.PEs)
	}
	if a.FreqGHz <= 0 || a.GLBReadBW <= 0 || a.PsumBW <= 0 || a.DRAMBW <= 0 {
		return fmt.Errorf("costmodel: accel %q has non-positive rates", a.Name)
	}
	if a.VectorLanes <= 0 {
		return fmt.Errorf("costmodel: accel %q has no vector lanes", a.Name)
	}
	return nil
}

// PeakMACs returns the peak MAC throughput in MACs/second.
func (a *Accel) PeakMACs() float64 { return float64(a.PEs) * a.FreqGHz * 1e9 }

// Chiplet presets ------------------------------------------------------

// simbaGLBReadBW is the calibrated per-die GLB port width (bytes/cycle).
// 20.6 B/cycle at 2 GHz = 41.2 GB/s, which lands the paper's GEMM
// anchors (S_FUSE QKV = 78.7 ms on one 256-PE OS chiplet).
const simbaGLBReadBW = 20.6

// SimbaChiplet returns the paper's 256-PE accelerator chiplet
// (16x16 array, 2 GHz) with the given dataflow style: the calibrated
// SimbaProfile instantiated.
func SimbaChiplet(style dataflow.Style) *Accel {
	return SimbaProfile().Chiplet(style)
}

// Monolithic returns an equal-frequency accelerator with the given PE
// count arranged as close to square as possible, with a single GLB port
// (same width as a chiplet's — ports do not scale with die area, which
// is the bandwidth wall the MCM sidesteps) and DRAM bandwidth equal to
// the whole package's.
func Monolithic(name string, pes int64, style dataflow.Style) *Accel {
	h, w := squarest(pes)
	return &Accel{
		Name:      name,
		PEs:       pes,
		ArrayH:    h,
		ArrayW:    w,
		Style:     style,
		FreqGHz:   2.0,
		GLBReadBW: simbaGLBReadBW,
		PsumBW:    8,
		DRAMBW:    64,
		// GLB scales with die area at one chiplet's worth (2 MiB) per 256
		// PEs, rounded up: small dies still carry a full buffer, so a
		// 64-PE die is not forced onto the DRAM path for every layer.
		GLBBytes:    (pes + 255) / 256 * (2 << 20),
		VectorLanes: 16 * maxi64(1, pes/2304),
		Energy:      DefaultEnergy(),
	}
}

func squarest(pes int64) (h, w int64) {
	h = int64(math.Sqrt(float64(pes)))
	for ; h > 1; h-- {
		if pes%h == 0 {
			return h, pes / h
		}
	}
	return 1, pes
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// LayerCost is the cost of one layer on one accelerator.
type LayerCost struct {
	Layer *dnn.Layer

	Cycles    float64
	LatencyMs float64
	EnergyJ   float64

	MACs      int64
	Waves     int64
	GLBBytes  float64 // GLB port traffic (in + weights + out)
	PsumBytes float64 // WS partial-sum spill traffic
	DRAMBytes float64

	SpatialUtil   float64 // mapped-PE fraction during waves
	EffectiveUtil float64 // useful MACs / (PEs * cycles)

	Bound string // "compute" | "glb" | "psum" | "dram" | "vector"
}

// EDP returns the energy-delay product in J*ms.
func (c LayerCost) EDP() float64 { return c.EnergyJ * c.LatencyMs }

// LayerOn evaluates one layer on one accelerator.
func LayerOn(l *dnn.Layer, a *Accel) LayerCost {
	an := dataflow.Analyze(l, a.Style, a.ArrayH, a.ArrayW)
	c := LayerCost{Layer: l, MACs: l.MACs(), Waves: an.Waves}

	vecCycles := float64(l.VectorOps) / float64(a.VectorLanes)
	moveBytes := float64(l.InputElems() + l.OutputElems())

	if !l.Kind.ComputeBound() {
		// Pure data-movement / vector layer: bounded by vector width or
		// the GLB port.
		glbCycles := moveBytes / a.GLBReadBW
		c.Cycles, c.Bound = maxBound(
			bound{vecCycles, "vector"}, bound{glbCycles, "glb"},
			bound{an.DRAMBytes / a.DRAMBW, "dram"})
		c.GLBBytes = moveBytes
		c.DRAMBytes = an.DRAMBytes
		c.SpatialUtil = 1
		c.finish(l, a)
		return c
	}

	// Weight residency: weights streamed per wave must come from DRAM
	// when the layer's parameters exceed the GLB weight budget.
	weightsResident := l.Params() <= a.GLBBytes
	waveDRAM := 0.0
	if !weightsResident {
		waveDRAM = an.WtBytesPerWave / a.DRAMBW
	}

	perWaveGLB := an.InBytesPerWave + an.WtBytesPerWave + an.OutBytesPerWave
	waveCycles, waveBound := maxBound(
		bound{an.ComputeCycles, "compute"},
		bound{perWaveGLB / a.GLBReadBW, "glb"},
		bound{an.PsumBytesPerWave / a.PsumBW, "psum"},
		bound{waveDRAM, "dram"})

	cycles := float64(an.Waves)*waveCycles + an.ComputeCycles // + fill
	c.Bound = waveBound

	// Layer-level compulsory-DRAM floor.
	if floor := an.DRAMBytes / a.DRAMBW; floor > cycles {
		cycles, c.Bound = floor, "dram"
	}
	// Fused vector ops overlap the MAC waves; only an excess extends.
	if vecCycles > cycles {
		cycles, c.Bound = vecCycles, "vector"
	}
	c.Cycles = cycles
	c.GLBBytes = an.GLBBytes
	c.PsumBytes = an.PsumTotal
	c.DRAMBytes = an.DRAMBytes
	if !weightsResident {
		c.DRAMBytes += an.WtBytesPerWave * float64(an.Waves-1)
	}
	c.SpatialUtil = an.SpatialUtil
	c.finish(l, a)
	return c
}

func (c *LayerCost) finish(l *dnn.Layer, a *Accel) {
	c.LatencyMs = c.Cycles / (a.FreqGHz * 1e6)
	e := a.Energy
	c.EnergyJ = (float64(c.MACs)*e.MACpJ +
		c.GLBBytes*e.GLBpJB +
		c.PsumBytes*e.PsumpJB +
		c.DRAMBytes*e.DRAMpJB +
		float64(l.VectorOps)*e.VectorOppJ) * 1e-12
	if c.Cycles > 0 {
		c.EffectiveUtil = float64(c.MACs) / (float64(a.PEs) * c.Cycles)
	}
}

type bound struct {
	v    float64
	name string
}

func maxBound(bs ...bound) (float64, string) {
	best := bs[0]
	for _, b := range bs[1:] {
		if b.v > best.v {
			best = b
		}
	}
	return best.v, best.name
}

// GraphCost aggregates per-layer costs over a graph executed serially on
// one accelerator.
type GraphCost struct {
	Accel     *Accel
	PerLayer  []LayerCost
	LatencyMs float64
	EnergyJ   float64
	MACs      int64
	GLBBytes  float64
	DRAMBytes float64
}

// EDP returns the energy-delay product in J*ms.
func (g GraphCost) EDP() float64 { return g.EnergyJ * g.LatencyMs }

// add accumulates one layer's cost into the aggregate.
func (g *GraphCost) add(c LayerCost) {
	g.PerLayer = append(g.PerLayer, c)
	g.LatencyMs += c.LatencyMs
	g.EnergyJ += c.EnergyJ
	g.MACs += c.MACs
	g.GLBBytes += c.GLBBytes
	g.DRAMBytes += c.DRAMBytes
}

// GraphOn evaluates every layer of g serially on a (uncached: a nil
// *Cache shares the accumulation loop with the memoized path).
func GraphOn(g *dnn.Graph, a *Accel) GraphCost {
	return (*Cache)(nil).GraphOn(g, a)
}

// ShardedLayerOn evaluates one shard of an n-way data-parallel split of
// l on a (the per-shard latency; all shards run concurrently on separate
// accelerators). Energy is returned per shard; multiply by n for the
// layer total.
func ShardedLayerOn(l *dnn.Layer, n int64, a *Accel) (LayerCost, error) {
	s, err := l.Shard(n)
	if err != nil {
		return LayerCost{}, err
	}
	return LayerOn(s, a), nil
}
