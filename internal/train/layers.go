// Package train implements training for the CapsNet architectures: mirror
// layers with hand-written backward passes (conv via im2col/col2im, squash
// and softmax Jacobians, dynamic routing with straight-through coupling
// coefficients), the margin loss of Sabour et al., and the Adam optimizer.
//
// Training exists to produce realistic weights for the resilience analysis
// — the paper trains in TensorFlow on GPUs; here the whole stack is pure
// Go (DESIGN.md §2). Layer parameter names match the inference layers in
// internal/caps exactly, so a trained model transfers via internal/params.
package train

import (
	"fmt"

	"redcane/internal/tensor"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

// newParam allocates a zeroed gradient for w.
func newParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, G: tensor.New(w.Shape...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.G.Fill(0) }

// Layer is a differentiable training layer. Forward caches whatever
// Backward needs; Backward accumulates parameter gradients and returns the
// input gradient. Layers are stateful and not safe for concurrent use.
type Layer interface {
	Name() string
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(gy *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Conv2D is the trainable convolution (+ optional ReLU) layer.
type Conv2D struct {
	LayerName string
	W, B      *Param
	Stride    int
	Pad       int
	ReLU      bool

	x, pre  *tensor.Tensor  // caches
	scratch *tensor.Scratch // recycles im2col/matmul temporaries across steps
}

// arena lazily builds the layer's scratch arena. Layers are documented as
// not safe for concurrent use, so a private per-layer arena needs no
// locking; forward outputs are cached across the step and therefore never
// released into it — only internal temporaries recycle.
func (l *Conv2D) arena() *tensor.Scratch {
	if l.scratch == nil {
		l.scratch = tensor.NewScratch()
	}
	return l.scratch
}

// NewConv2D builds a trainable convolution with Glorot-initialized
// weights.
func NewConv2D(name string, inCh, outCh, k, stride, pad int, relu bool, seed uint64) *Conv2D {
	w := tensor.New(outCh, inCh, k, k).FillGlorot(tensor.NewRNG(seed), inCh*k*k, outCh*k*k)
	return &Conv2D{
		LayerName: name,
		W:         newParam(name+"/W", w),
		B:         newParam(name+"/B", tensor.New(outCh)),
		Stride:    stride, Pad: pad, ReLU: relu,
	}
}

// Name implements Layer.
func (l *Conv2D) Name() string { return l.LayerName }

// Forward implements Layer.
func (l *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.x = x
	y := tensor.Conv2DScratch(x, l.W.W, l.B.W, l.Stride, l.Pad, l.arena())
	l.pre = y
	if l.ReLU {
		return tensor.ReLU(y)
	}
	return y
}

// Backward implements Layer.
func (l *Conv2D) Backward(gy *tensor.Tensor) *tensor.Tensor {
	if l.ReLU {
		gy = tensor.ReLUBackward(l.pre, gy)
	}
	gx, gw, gb := tensor.Conv2DBackwardScratch(l.x, l.W.W, gy, l.Stride, l.Pad, l.arena())
	l.W.G.AddInPlace(gw)
	l.B.G.AddInPlace(gb)
	return gx
}

// Params implements Layer.
func (l *Conv2D) Params() []*Param { return []*Param{l.W, l.B} }

// ConvCaps2D is the trainable convolutional capsule layer: convolution
// followed by a squash over each capsule's components.
type ConvCaps2D struct {
	LayerName string
	Caps, Dim int
	W, B      *Param
	Stride    int
	Pad       int

	x, pre  *tensor.Tensor
	scratch *tensor.Scratch
}

// arena lazily builds the layer's scratch arena (see Conv2D.arena).
func (l *ConvCaps2D) arena() *tensor.Scratch {
	if l.scratch == nil {
		l.scratch = tensor.NewScratch()
	}
	return l.scratch
}

// NewConvCaps2D builds a trainable ConvCaps2D.
func NewConvCaps2D(name string, inCh, caps, dim, k, stride, pad int, seed uint64) *ConvCaps2D {
	w := tensor.New(caps*dim, inCh, k, k).FillGlorot(tensor.NewRNG(seed), inCh*k*k, caps*dim*k*k)
	return &ConvCaps2D{
		LayerName: name, Caps: caps, Dim: dim,
		W:      newParam(name+"/W", w),
		B:      newParam(name+"/B", tensor.New(caps*dim)),
		Stride: stride, Pad: pad,
	}
}

// Name implements Layer.
func (l *ConvCaps2D) Name() string { return l.LayerName }

// Forward implements Layer.
func (l *ConvCaps2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.x = x
	y := tensor.Conv2DScratch(x, l.W.W, l.B.W, l.Stride, l.Pad, l.arena())
	n, h, w := y.Shape[0], y.Shape[2], y.Shape[3]
	l.pre = y.Reshape(n, l.Caps, l.Dim, h, w)
	sq := tensor.Squash(l.pre, 2)
	return sq.Reshape(n, l.Caps*l.Dim, h, w)
}

// Backward implements Layer.
func (l *ConvCaps2D) Backward(gy *tensor.Tensor) *tensor.Tensor {
	n, h, w := l.pre.Shape[0], l.pre.Shape[3], l.pre.Shape[4]
	g5 := gy.Reshape(n, l.Caps, l.Dim, h, w)
	gpre := tensor.SquashBackward(l.pre, g5, 2)
	gconv := gpre.Reshape(n, l.Caps*l.Dim, h, w)
	gx, gw, gb := tensor.Conv2DBackwardScratch(l.x, l.W.W, gconv, l.Stride, l.Pad, l.arena())
	l.W.G.AddInPlace(gw)
	l.B.G.AddInPlace(gb)
	return gx
}

// Params implements Layer.
func (l *ConvCaps2D) Params() []*Param { return []*Param{l.W, l.B} }

// CapsCell mirrors the DeepCaps residual cell: out = L3(L2(L1(x))) +
// Skip(L1(x)).
type CapsCell struct {
	CellName   string
	L1, L2, L3 Layer
	Skip       Layer
}

// Name implements Layer.
func (c *CapsCell) Name() string { return c.CellName }

// Forward implements Layer.
func (c *CapsCell) Forward(x *tensor.Tensor) *tensor.Tensor {
	a := c.L1.Forward(x)
	main := c.L3.Forward(c.L2.Forward(a))
	skip := c.Skip.Forward(a)
	if !main.SameShape(skip) {
		panic(fmt.Sprintf("train: cell %s branch shapes %v vs %v", c.CellName, main.Shape, skip.Shape))
	}
	return tensor.Add(main, skip)
}

// Backward implements Layer.
func (c *CapsCell) Backward(gy *tensor.Tensor) *tensor.Tensor {
	gaMain := c.L2.Backward(c.L3.Backward(gy))
	gaSkip := c.Skip.Backward(gy)
	return c.L1.Backward(tensor.Add(gaMain, gaSkip))
}

// Params implements Layer.
func (c *CapsCell) Params() []*Param {
	var out []*Param
	for _, l := range []Layer{c.L1, c.L2, c.L3, c.Skip} {
		out = append(out, l.Params()...)
	}
	return out
}

// Model is an ordered stack of trainable layers.
type Model struct {
	ModelName string
	Layers    []Layer
}

// Forward runs all layers.
func (m *Model) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range m.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates the output gradient through all layers.
func (m *Model) Backward(gy *tensor.Tensor) {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		gy = m.Layers[i].Backward(gy)
	}
}

// Params collects every layer's parameters.
func (m *Model) Params() []*Param {
	var out []*Param
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrad clears all gradients.
func (m *Model) ZeroGrad() {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// ParamMap exposes the weights keyed by name, matching the inference
// network's Params() keys for transfer via internal/params.
func (m *Model) ParamMap() map[string]*tensor.Tensor {
	out := map[string]*tensor.Tensor{}
	for _, p := range m.Params() {
		out[p.Name] = p.W
	}
	return out
}
