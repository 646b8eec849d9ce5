package costmodel

import (
	"math"
	"testing"
	"testing/quick"

	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/dnn"
	"mcmnpu/internal/tensor"
)

func TestAccelValidate(t *testing.T) {
	a := SimbaChiplet(dataflow.OS)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *a
	bad.ArrayH = 10
	if bad.Validate() == nil {
		t.Error("array/PE mismatch should fail validation")
	}
	bad2 := *a
	bad2.GLBReadBW = 0
	if bad2.Validate() == nil {
		t.Error("zero bandwidth should fail validation")
	}
}

func TestPeakMACs(t *testing.T) {
	a := SimbaChiplet(dataflow.OS)
	if got := a.PeakMACs(); got != 256*2e9 {
		t.Errorf("peak = %v", got)
	}
}

func TestMonolithicPresets(t *testing.T) {
	for _, pes := range []int64{9216, 4608, 2304} {
		a := Monolithic("m", pes, dataflow.OS)
		if err := a.Validate(); err != nil {
			t.Errorf("pes=%d: %v", pes, err)
		}
		if a.ArrayH*a.ArrayW != pes {
			t.Errorf("pes=%d: array %dx%d", pes, a.ArrayH, a.ArrayW)
		}
	}
}

// Regression: integer division used to truncate GLBBytes to 0 below 256
// PEs, forcing every layer onto the DRAM-streaming path.
func TestMonolithicSmallDieGLBResidency(t *testing.T) {
	cases := []struct {
		pes  int64
		want int64
	}{
		{64, 2 << 20},        // below one chiplet: still one full buffer
		{256, 2 << 20},       // exactly one chiplet
		{300, 2 * (2 << 20)}, // partial second chiplet rounds up
		{512, 2 * (2 << 20)},
	}
	for _, c := range cases {
		a := Monolithic("m", c.pes, dataflow.OS)
		if a.GLBBytes != c.want {
			t.Errorf("pes=%d: GLBBytes = %d, want %d", c.pes, a.GLBBytes, c.want)
		}
	}

	// A layer whose weights fit a 2 MiB GLB must be weight-resident on
	// the 64-PE die: its DRAM traffic is exactly the compulsory footprint
	// with no per-wave refetch.
	a := Monolithic("m64", 64, dataflow.OS)
	small := dnn.NewLinear("small", 64, 128, 128)
	if small.Params() > a.GLBBytes {
		t.Fatalf("test layer no longer fits the GLB (%d > %d)", small.Params(), a.GLBBytes)
	}
	c := LayerOn(small, a)
	wantCompulsory := float64(small.InputElems() + small.OutputElems() + small.Params())
	if c.DRAMBytes != wantCompulsory {
		t.Errorf("64-PE die: DRAM %v, want compulsory %v (weights must be resident)", c.DRAMBytes, wantCompulsory)
	}
}

// The paper's calibration anchors: per-layer latencies of the fusion
// stages on a single 256-PE OS chiplet. We assert within 5%.
func TestPaperAnchors(t *testing.T) {
	os := SimbaChiplet(dataflow.OS)
	cases := []struct {
		name   string
		target float64 // ms, from the paper
		layers []*dnn.Layer
	}{
		{"S_QKV", 78.7, []*dnn.Layer{dnn.NewBatchedLinear("q", 8, 16000, 256, 768)}},
		{"S_ATTN", 20.5, []*dnn.Layer{
			dnn.NewMatMul("l", 8, 16000, 256, 96),
			dnn.NewMatMul("a", 8, 16000, 96, 256)}},
		{"S_FFN", 236, []*dnn.Layer{
			dnn.NewBatchedLinear("p", 8, 16000, 256, 256),
			dnn.NewBatchedLinear("1", 8, 16000, 256, 1024),
			dnn.NewBatchedLinear("2", 8, 16000, 1024, 256)}},
		{"T_QKV", 165.6, []*dnn.Layer{dnn.NewBatchedLinear("q", 12, 16000, 300, 900)}},
		{"T_ATTN", 36.4, []*dnn.Layer{
			dnn.NewMatMul("l", 12, 16000, 300, 96),
			dnn.NewMatMul("a", 12, 16000, 96, 300)}},
		{"T_FFN", 490.2, []*dnn.Layer{
			dnn.NewBatchedLinear("p", 12, 16000, 300, 300),
			dnn.NewBatchedLinear("1", 12, 16000, 300, 1200),
			dnn.NewBatchedLinear("2", 12, 16000, 1200, 300)}},
	}
	for _, c := range cases {
		var ms float64
		for _, l := range c.layers {
			ms += LayerOn(l, os).LatencyMs
		}
		if rel := math.Abs(ms-c.target) / c.target; rel > 0.05 {
			t.Errorf("%s: %.1f ms, paper %.1f ms (%.1f%% off)", c.name, ms, c.target, rel*100)
		}
	}
}

func TestOSFasterWSMoreEfficientOnConvs(t *testing.T) {
	conv := dnn.NewConv2D(dnn.Conv2DSpec{Name: "c", In: tensor.NCHW(1, 256, 20, 80),
		OutC: 256, Kernel: 3, Stride: 1, Pad: 1})
	co := LayerOn(conv, SimbaChiplet(dataflow.OS))
	cw := LayerOn(conv, SimbaChiplet(dataflow.WS))
	if co.LatencyMs >= cw.LatencyMs {
		t.Errorf("OS should be faster on convs: OS %.2f WS %.2f", co.LatencyMs, cw.LatencyMs)
	}
	if cw.EnergyJ >= co.EnergyJ {
		t.Errorf("WS should be more energy-efficient on convs: OS %.4g WS %.4g",
			co.EnergyJ, cw.EnergyJ)
	}
}

func TestFusionGEMMsOSAffineBothMetrics(t *testing.T) {
	gemm := dnn.NewBatchedLinear("q", 8, 16000, 256, 768)
	co := LayerOn(gemm, SimbaChiplet(dataflow.OS))
	cw := LayerOn(gemm, SimbaChiplet(dataflow.WS))
	if co.LatencyMs >= cw.LatencyMs || co.EnergyJ >= cw.EnergyJ {
		t.Errorf("fusion GEMMs must be OS-affine in latency AND energy: "+
			"lat OS %.1f WS %.1f, E OS %.4g WS %.4g",
			co.LatencyMs, cw.LatencyMs, co.EnergyJ, cw.EnergyJ)
	}
}

func TestNonComputeLayerCost(t *testing.T) {
	sm := dnn.NewSoftmax("sm", 8, 16000, 96)
	c := LayerOn(sm, SimbaChiplet(dataflow.OS))
	if c.MACs != 0 || c.LatencyMs <= 0 || c.EnergyJ <= 0 {
		t.Errorf("softmax cost: %+v", c)
	}
	if c.Bound != "vector" && c.Bound != "glb" && c.Bound != "dram" {
		t.Errorf("unexpected bound %q", c.Bound)
	}
}

func TestWeightResidencyDRAMStream(t *testing.T) {
	// 8M-param layer exceeds the 2 MiB GLB: weights stream from DRAM.
	big := dnn.NewLinear("big", 64, 2048, 4096)
	c := LayerOn(big, SimbaChiplet(dataflow.OS))
	if c.DRAMBytes <= float64(big.Params()) {
		t.Error("non-resident weights should add DRAM refetch traffic")
	}
	small := dnn.NewLinear("small", 64, 128, 128)
	cs := LayerOn(small, SimbaChiplet(dataflow.OS))
	wantCompulsory := float64(small.InputElems() + small.OutputElems() + small.Params())
	if cs.DRAMBytes != wantCompulsory {
		t.Errorf("resident weights: DRAM %v, want %v", cs.DRAMBytes, wantCompulsory)
	}
}

func TestGraphOnAggregates(t *testing.T) {
	g := dnn.NewGraph("g")
	a := g.Add(dnn.NewLinear("a", 1000, 256, 256))
	g.Add(dnn.NewLinear("b", 1000, 256, 256), a)
	gc := GraphOn(g, SimbaChiplet(dataflow.OS))
	if len(gc.PerLayer) != 2 {
		t.Fatalf("per-layer count = %d", len(gc.PerLayer))
	}
	if gc.LatencyMs != gc.PerLayer[0].LatencyMs+gc.PerLayer[1].LatencyMs {
		t.Error("graph latency should sum layer latencies")
	}
	if gc.EnergyJ != gc.PerLayer[0].EnergyJ+gc.PerLayer[1].EnergyJ {
		t.Error("graph energy should sum layer energies")
	}
	if gc.EDP() != gc.EnergyJ*gc.LatencyMs {
		t.Error("EDP mismatch")
	}
}

func TestShardedLayerOn(t *testing.T) {
	l := dnn.NewBatchedLinear("ffn", 12, 16000, 300, 1200)
	a := SimbaChiplet(dataflow.OS)
	full := LayerOn(l, a)
	shard, err := ShardedLayerOn(l, 6, a)
	if err != nil {
		t.Fatal(err)
	}
	ratio := full.LatencyMs / shard.LatencyMs
	if ratio < 5.5 || ratio > 6.5 {
		t.Errorf("6-way shard speedup = %.2f, want ~6", ratio)
	}
}

// Property: sharding n-way never increases per-shard latency, and the
// speedup never exceeds n.
func TestShardSpeedupBoundedProperty(t *testing.T) {
	a := SimbaChiplet(dataflow.OS)
	l := dnn.NewBatchedLinear("ffn", 12, 16000, 300, 1200)
	full := LayerOn(l, a)
	f := func(n uint8) bool {
		k := int64(n)%12 + 1
		c, err := ShardedLayerOn(l, k, a)
		if err != nil {
			return false
		}
		return c.LatencyMs <= full.LatencyMs*1.001 &&
			full.LatencyMs/c.LatencyMs <= float64(k)*1.05
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: more PEs never increases latency (same style, scaled array).
func TestMorePEsNoSlowerProperty(t *testing.T) {
	small := SimbaChiplet(dataflow.OS)
	big := *small
	big.PEs, big.ArrayH, big.ArrayW = 1024, 32, 32
	big.GLBReadBW *= 4 // scale bandwidth with the array for this property
	big.PsumBW *= 4
	big.DRAMBW *= 4
	f := func(m, k uint8) bool {
		rows := int64(m)%4000 + 64
		depth := (int64(k)%16 + 1) * 32
		l := dnn.NewLinear("p", rows, depth, 256)
		return LayerOn(l, &big).LatencyMs <= LayerOn(l, small).LatencyMs*1.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: energy and latency are strictly positive and EDP consistent.
func TestCostPositivityProperty(t *testing.T) {
	a := SimbaChiplet(dataflow.WS)
	f := func(m, k, n uint8) bool {
		l := dnn.NewLinear("p", int64(m)+1, int64(k)+1, int64(n)+1)
		c := LayerOn(l, a)
		return c.LatencyMs > 0 && c.EnergyJ > 0 &&
			math.Abs(c.EDP()-c.EnergyJ*c.LatencyMs) < 1e-12 &&
			c.EffectiveUtil >= 0 && c.EffectiveUtil <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
