// Package dnn defines the intermediate representation used by the cost
// model and the scheduler: individual layers normalized to a
// MAESTRO-style loop nest, and directed acyclic graphs of layers with
// explicit dependencies. Layers carry no tensor data — only dimensions,
// parameter counts and traffic footprints.
package dnn

import (
	"fmt"

	"mcmnpu/internal/tensor"
)

// Kind enumerates the layer operator classes the cost model understands.
type Kind int

const (
	KindConv2D Kind = iota
	KindDeconv2D
	KindLinear
	KindMatMul
	KindDWConv
	KindPool
	KindEltwise
	KindSoftmax
	KindConcat
	KindUpsample
)

func (k Kind) String() string {
	switch k {
	case KindConv2D:
		return "conv2d"
	case KindDeconv2D:
		return "deconv2d"
	case KindLinear:
		return "linear"
	case KindMatMul:
		return "matmul"
	case KindDWConv:
		return "dwconv"
	case KindPool:
		return "pool"
	case KindEltwise:
		return "eltwise"
	case KindSoftmax:
		return "softmax"
	case KindConcat:
		return "concat"
	case KindUpsample:
		return "upsample"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ComputeBound reports whether the operator class performs MAC-array work
// (convolutions and GEMMs). Non-compute layers are modeled as pure data
// movement by the cost model.
func (k Kind) ComputeBound() bool {
	switch k {
	case KindConv2D, KindDeconv2D, KindLinear, KindMatMul, KindDWConv:
		return true
	default:
		return false
	}
}

// LoopNest is the canonical MAESTRO-style 6-D loop descriptor plus an
// outer batch dimension for independent repeats (frames, cameras,
// attention heads). For GEMM-shaped layers the convention is
// K=N_gemm (output features), C=K_gemm (reduction), Y=M_gemm (rows), X=1.
type LoopNest struct {
	K, C, Y, X, R, S int64
	Batch            int64
}

// MACs returns the multiply-accumulate count implied by the nest.
func (n LoopNest) MACs() int64 {
	return n.Batch * n.K * n.C * n.Y * n.X * n.R * n.S
}

// Valid reports whether every extent is strictly positive.
func (n LoopNest) Valid() bool {
	return n.K > 0 && n.C > 0 && n.Y > 0 && n.X > 0 && n.R > 0 && n.S > 0 && n.Batch > 0
}

// Layer is one operator instance. Layers are immutable after creation;
// Shard produces derived copies.
type Layer struct {
	Name string
	Kind Kind
	Nest LoopNest

	In  tensor.Shape // primary input activation shape
	Out tensor.Shape // output activation shape

	WeightElems int64 // parameter elements (0 for weightless ops)

	// VectorOps counts non-MAC elementwise operations (exp/div for
	// softmax, max for pooling, adds for residuals). These never hit the
	// MAC array but do generate traffic and vector-unit cycles.
	VectorOps int64

	// Stride is the convolution stride (1 for GEMM-shaped layers); the
	// dataflow model uses it for input-halo accounting.
	Stride int64

	// ShardDim names the dimension data-parallel sharding splits:
	// "batch" (independent instances) or "rows" (the Y loop). Weights
	// are replicated across shards in both cases.
	ShardDim string

	// Stage tags the perception-pipeline stage this layer belongs to
	// (set by the workload builders; informational for reports).
	Stage string
}

// MACs returns the layer's multiply-accumulate count (0 for non-compute
// operator classes).
func (l *Layer) MACs() int64 {
	if !l.Kind.ComputeBound() {
		return 0
	}
	return l.Nest.MACs()
}

// Params returns the parameter element count.
func (l *Layer) Params() int64 { return l.WeightElems }

// InputElems returns the primary input activation element count.
func (l *Layer) InputElems() int64 { return l.In.Elems() }

// OutputElems returns the output activation element count.
func (l *Layer) OutputElems() int64 { return l.Out.Elems() }

// Validate checks internal consistency.
func (l *Layer) Validate() error {
	if l.Name == "" {
		return fmt.Errorf("dnn: layer with empty name")
	}
	if !l.In.Valid() || !l.Out.Valid() {
		return fmt.Errorf("dnn: layer %q has invalid shapes in=%v out=%v", l.Name, l.In, l.Out)
	}
	if l.Kind.ComputeBound() && !l.Nest.Valid() {
		return fmt.Errorf("dnn: layer %q has invalid loop nest %+v", l.Name, l.Nest)
	}
	if l.WeightElems < 0 || l.VectorOps < 0 {
		return fmt.Errorf("dnn: layer %q has negative counts", l.Name)
	}
	return nil
}

// Shard returns a copy of the layer holding 1/n of the data-parallel
// work (weights replicated). n must be >= 1. Sharding splits the batch
// dimension when it divides evenly, otherwise the row (Y) dimension; a
// shard always holds the ceiling share so that n shards cover the layer.
func (l *Layer) Shard(n int64) (*Layer, error) {
	if n < 1 {
		return nil, fmt.Errorf("dnn: shard factor %d < 1 for layer %q", n, l.Name)
	}
	if n == 1 {
		cp := *l
		return &cp, nil
	}
	cp := *l
	cp.Name = fmt.Sprintf("%s/shard%d", l.Name, n)
	switch {
	case l.ShardDim == "batch" || (l.ShardDim == "" && l.Nest.Batch%n == 0):
		if l.Nest.Batch < n {
			// Cannot split batch finer than its extent; fall back to rows.
			cp.Nest.Batch = 1
			cp.Nest.Y = tensor.CeilDiv(l.Nest.Y*l.Nest.Batch, n)
		} else {
			cp.Nest.Batch = tensor.CeilDiv(l.Nest.Batch, n)
		}
	default:
		if l.Nest.Y < n {
			return nil, fmt.Errorf("dnn: layer %q rows %d cannot shard %d-way", l.Name, l.Nest.Y, n)
		}
		cp.Nest.Y = tensor.CeilDiv(l.Nest.Y, n)
	}
	cp.VectorOps = tensor.CeilDiv(l.VectorOps, n)
	scale := float64(cp.Nest.MACs()) / float64(l.Nest.MACs())
	cp.In = scaleLeadDim(l.In, scale)
	cp.Out = scaleLeadDim(l.Out, scale)
	return &cp, nil
}

// MaxShard returns the largest useful data-parallel shard factor: the
// extent of the dimension sharding splits.
func (l *Layer) MaxShard() int64 {
	if l.ShardDim == "batch" {
		return l.Nest.Batch
	}
	if l.Nest.Batch > 1 {
		return l.Nest.Batch * l.Nest.Y
	}
	return l.Nest.Y
}

func scaleLeadDim(s tensor.Shape, frac float64) tensor.Shape {
	if len(s) == 0 {
		return s
	}
	out := s.Clone()
	d := int64(float64(out[0])*frac + 0.5)
	if d < 1 {
		d = 1
	}
	out[0] = d
	return out
}

// --- Constructors -----------------------------------------------------

// Conv2DSpec parametrizes NewConv2D.
type Conv2DSpec struct {
	Name     string
	In       tensor.Shape // NCHW (N typically 1)
	OutC     int64
	Kernel   int64
	Stride   int64
	Pad      int64
	Groups   int64 // 1 for dense conv
	FusedOps int64 // extra elementwise ops folded in (BN+ReLU)
}

// NewConv2D builds a dense or grouped 2-D convolution layer.
func NewConv2D(s Conv2DSpec) *Layer {
	if s.Groups <= 0 {
		s.Groups = 1
	}
	if s.Stride <= 0 {
		s.Stride = 1
	}
	oh := tensor.ConvOut(s.In.H(), s.Kernel, s.Stride, s.Pad)
	ow := tensor.ConvOut(s.In.W(), s.Kernel, s.Stride, s.Pad)
	out := tensor.NCHW(s.In.N(), s.OutC, oh, ow)
	return &Layer{
		Name: s.Name,
		Kind: KindConv2D,
		Nest: LoopNest{
			K: s.OutC / s.Groups, C: s.In.C() / s.Groups,
			Y: oh, X: ow, R: s.Kernel, S: s.Kernel,
			Batch: s.In.N() * s.Groups,
		},
		In:          s.In.Clone(),
		Out:         out,
		WeightElems: (s.OutC / s.Groups) * (s.In.C() / s.Groups) * s.Kernel * s.Kernel * s.Groups,
		VectorOps:   s.FusedOps * out.Elems(),
		Stride:      s.Stride,
		ShardDim:    "rows",
	}
}

// NewDeconv2D builds a transposed (fractionally strided) convolution.
// The loop nest is expressed over the *output* spatial extent with an
// effective reduction of R*S/stride^2 taps per output, which conserves
// the true transposed-convolution MAC count.
func NewDeconv2D(name string, in tensor.Shape, outC, kernel, stride, pad int64) *Layer {
	oh := tensor.DeconvOut(in.H(), kernel, stride, pad)
	ow := tensor.DeconvOut(in.W(), kernel, stride, pad)
	out := tensor.NCHW(in.N(), outC, oh, ow)
	// True MACs: every input pixel touches kernel^2 taps for every
	// (inC,outC) pair => in.H*in.W*k*k*C*K. Expressed per-output that is
	// (k/stride)^2 taps. We keep R,S integral by folding the stride into
	// the R,S extents; kernel is a multiple of stride in all our models.
	rEff := kernel / stride
	if rEff < 1 {
		rEff = 1
	}
	return &Layer{
		Name: name,
		Kind: KindDeconv2D,
		Nest: LoopNest{
			K: outC, C: in.C(), Y: oh, X: ow, R: rEff, S: rEff,
			Batch: in.N(),
		},
		In:          in.Clone(),
		Out:         out,
		WeightElems: outC * in.C() * kernel * kernel,
		Stride:      1,
		ShardDim:    "rows",
	}
}

// NewLinear builds a fully connected layer applied to `tokens`
// independent rows: out[tokens,outF] = in[tokens,inF] * W[inF,outF].
func NewLinear(name string, tokens, inF, outF int64) *Layer {
	return &Layer{
		Name:        name,
		Kind:        KindLinear,
		Nest:        LoopNest{K: outF, C: inF, Y: tokens, X: 1, R: 1, S: 1, Batch: 1},
		In:          tensor.Seq(tokens, inF),
		Out:         tensor.Seq(tokens, outF),
		WeightElems: inF * outF,
		Stride:      1,
		ShardDim:    "rows",
	}
}

// NewBatchedLinear is NewLinear over `batch` independent instances that
// share weights (e.g. the same projection applied to every camera).
func NewBatchedLinear(name string, batch, tokens, inF, outF int64) *Layer {
	l := NewLinear(name, tokens, inF, outF)
	l.Name = name
	l.Nest.Batch = batch
	l.In = tensor.Shape{batch * tokens, inF}
	l.Out = tensor.Shape{batch * tokens, outF}
	l.ShardDim = "batch"
	return l
}

// NewMatMul builds a batched activation-activation matrix multiply
// (no weights): out[b,M,N] = A[b,M,K] * B[b,K,N].
func NewMatMul(name string, batch, m, k, n int64) *Layer {
	return &Layer{
		Name:     name,
		Kind:     KindMatMul,
		Nest:     LoopNest{K: n, C: k, Y: m, X: 1, R: 1, S: 1, Batch: batch},
		In:       tensor.Shape{batch, m, k},
		Out:      tensor.Shape{batch, m, n},
		ShardDim: "batch",
	}
}

// NewPool builds a max/avg pooling layer.
func NewPool(name string, in tensor.Shape, kernel, stride int64) *Layer {
	oh := tensor.ConvOut(in.H(), kernel, stride, kernel/2)
	ow := tensor.ConvOut(in.W(), kernel, stride, kernel/2)
	out := tensor.NCHW(in.N(), in.C(), oh, ow)
	return &Layer{
		Name:      name,
		Kind:      KindPool,
		Nest:      LoopNest{K: in.C(), C: 1, Y: oh, X: ow, R: kernel, S: kernel, Batch: in.N()},
		In:        in.Clone(),
		Out:       out,
		VectorOps: out.Elems() * kernel * kernel,
		ShardDim:  "rows",
	}
}

// NewEltwise builds an elementwise op (residual add, activation, norm)
// with opsPerElem vector operations per output element.
func NewEltwise(name string, shape tensor.Shape, opsPerElem int64) *Layer {
	return &Layer{
		Name:      name,
		Kind:      KindEltwise,
		Nest:      LoopNest{K: 1, C: 1, Y: shape.Elems(), X: 1, R: 1, S: 1, Batch: 1},
		In:        shape.Clone(),
		Out:       shape.Clone(),
		VectorOps: shape.Elems() * opsPerElem,
		ShardDim:  "rows",
	}
}

// NewSoftmax builds a row softmax over [rows, width] logits. Cost model
// treats it as ~5 vector ops per element (max, sub, exp, sum, div).
func NewSoftmax(name string, batch, rows, width int64) *Layer {
	return &Layer{
		Name:      name,
		Kind:      KindSoftmax,
		Nest:      LoopNest{K: 1, C: 1, Y: batch * rows, X: width, R: 1, S: 1, Batch: 1},
		In:        tensor.Shape{batch, rows, width},
		Out:       tensor.Shape{batch, rows, width},
		VectorOps: batch * rows * width * 5,
		ShardDim:  "rows",
	}
}

// NewConcat builds a concatenation layer; pure data movement.
func NewConcat(name string, out tensor.Shape) *Layer {
	return &Layer{
		Name:     name,
		Kind:     KindConcat,
		Nest:     LoopNest{K: 1, C: 1, Y: out.Elems(), X: 1, R: 1, S: 1, Batch: 1},
		In:       out.Clone(),
		Out:      out.Clone(),
		ShardDim: "rows",
	}
}

// NewUpsample builds a nearest/bilinear upsampling layer (data movement
// plus light interpolation ops).
func NewUpsample(name string, in tensor.Shape, factor int64) *Layer {
	return NewResize(name, in, in.H()*factor, in.W()*factor)
}

// NewResize builds an arbitrary-target spatial resize (nearest
// interpolation); used for BiFPN cross-scale feature alignment where
// odd extents make integer factors impossible.
func NewResize(name string, in tensor.Shape, outH, outW int64) *Layer {
	out := tensor.NCHW(in.N(), in.C(), outH, outW)
	return &Layer{
		Name:      name,
		Kind:      KindUpsample,
		Nest:      LoopNest{K: 1, C: 1, Y: out.Elems(), X: 1, R: 1, S: 1, Batch: 1},
		In:        in.Clone(),
		Out:       out,
		VectorOps: out.Elems() * 4,
		ShardDim:  "rows",
	}
}
