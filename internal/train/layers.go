// Package train trains the CapsNet architectures of internal/caps in
// place. Each trainable layer wraps one inference layer: its forward pass
// is that layer's own float forward, so training and the resilience
// analysis share one implementation per layer kind, and train adds only
// the hand-written backward passes (conv via im2col/col2im, squash
// Jacobians, dynamic routing with straight-through coupling
// coefficients), the margin loss of Sabour et al., the Adam optimizer,
// LSUV initialization and the reconstruction decoder.
//
// Training exists to produce realistic weights for the resilience analysis
// — the paper trains in TensorFlow on GPUs; here the whole stack is pure
// Go (DESIGN.md §2). A wrapped layer's parameters are the inference
// layer's weight tensors, so a trained Model leaves its network ready to
// analyse, with no weight transfer.
package train

import (
	"fmt"

	"redcane/internal/caps"
	"redcane/internal/noise"
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

// Wrap returns the trainable view of net: one Layer per network layer,
// each training its inference layer's weight tensors in place.
func Wrap(net *caps.Network) *Model {
	m := &Model{Net: net}
	for _, l := range net.Layers {
		m.Layers = append(m.Layers, wrap(l))
	}
	return m
}

// wrap returns the trainable layer for one inference layer.
func wrap(l caps.Layer) Layer {
	switch t := l.(type) {
	case *caps.Conv2D:
		return &Conv2D{L: t, W: newParam(t.LayerName+"/W", t.W), B: newParam(t.LayerName+"/B", t.B), s: tensor.NewScratch()}
	case *caps.ConvCaps2D:
		return &ConvCaps2D{L: t, W: newParam(t.LayerName+"/W", t.W), B: newParam(t.LayerName+"/B", t.B), s: tensor.NewScratch()}
	case *caps.ConvCaps3D:
		return &ConvCaps3D{L: t, W: newParam(t.LayerName+"/W", t.W), s: tensor.NewScratch()}
	case *caps.ClassCaps:
		return &ClassCaps{L: t, W: newParam(t.LayerName+"/W", t.W)}
	case *caps.CapsCell:
		return &CapsCell{CellName: t.CellName, L1: wrap(t.L1), L2: wrap(t.L2), L3: wrap(t.L3), Skip: wrap(t.Skip)}
	}
	panic(fmt.Sprintf("train: no trainable layer for %T", l))
}

// tape records one forward pass of a wrapped layer for its backward pass:
// the layer input and, as the noise.Injector the inference layer runs
// under, the MAC outputs (pre-activation or routing votes) and the last
// coupling coefficients. It injects nothing. The forward runs with a nil
// scratch arena, so no recorded tensor is ever recycled.
type tape struct {
	x, mac, k *tensor.Tensor
}

// Inject implements noise.Injector.
func (t *tape) Inject(s noise.Site, x *tensor.Tensor) *tensor.Tensor {
	switch s.Group {
	case noise.MACOutputs:
		t.mac = x
	case noise.Softmax:
		t.k = x
	}
	return x
}

// execLayer is the backend-aware forward every wrapped caps layer has.
type execLayer interface {
	ForwardExec(x *tensor.Tensor, inj noise.Injector, s *tensor.Scratch, be caps.Backend) *tensor.Tensor
}

// record runs l's float forward on x and records it.
func (t *tape) record(l execLayer, x *tensor.Tensor) *tensor.Tensor {
	*t = tape{x: x}
	return l.ForwardExec(x, t, nil, caps.Float{})
}

// preAct returns the recorded pre-activation (or votes), the tensor LSUV
// calibrates.
func (t *tape) preAct() *tensor.Tensor { return t.mac }

// Conv2D trains a caps.Conv2D (convolution plus optional ReLU).
type Conv2D struct {
	L    *caps.Conv2D
	W, B *Param
	tape
	s *tensor.Scratch // recycles backward temporaries across steps
}

// Name implements Layer.
func (l *Conv2D) Name() string { return l.L.LayerName }

// Forward implements Layer.
func (l *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor { return l.record(l.L, x) }

// Backward implements Layer.
func (l *Conv2D) Backward(gy *tensor.Tensor) *tensor.Tensor {
	if l.L.ReLU {
		gy = tensor.ReLUBackward(l.mac, gy)
	}
	gx, gw, gb := tensor.Conv2DBackwardScratch(l.x, l.W.W, gy, l.L.Stride, l.L.Pad, l.s)
	l.W.G.AddInPlace(gw)
	l.B.G.AddInPlace(gb)
	return gx
}

// Params implements Layer.
func (l *Conv2D) Params() []*Param { return []*Param{l.W, l.B} }

// ConvCaps2D trains a caps.ConvCaps2D: convolution followed by a squash
// over each capsule's components.
type ConvCaps2D struct {
	L    *caps.ConvCaps2D
	W, B *Param
	tape
	s *tensor.Scratch // recycles backward temporaries across steps
}

// Name implements Layer.
func (l *ConvCaps2D) Name() string { return l.L.LayerName }

// Forward implements Layer.
func (l *ConvCaps2D) Forward(x *tensor.Tensor) *tensor.Tensor { return l.record(l.L, x) }

// Backward implements Layer.
func (l *ConvCaps2D) Backward(gy *tensor.Tensor) *tensor.Tensor {
	n, ch, h, w := l.mac.Shape[0], l.mac.Shape[1], l.mac.Shape[2], l.mac.Shape[3]
	caps5 := []int{n, l.L.Caps, l.L.Dim, h, w}
	gpre := tensor.SquashBackward(l.mac.Reshape(caps5...), gy.Reshape(caps5...), 2)
	gx, gw, gb := tensor.Conv2DBackwardScratch(l.x, l.W.W, gpre.Reshape(n, ch, h, w), l.L.Stride, l.L.Pad, l.s)
	l.W.G.AddInPlace(gw)
	l.B.G.AddInPlace(gb)
	return gx
}

// Params implements Layer.
func (l *ConvCaps2D) Params() []*Param { return []*Param{l.W, l.B} }

// CapsCell trains a caps.CapsCell: out = L3(L2(L1(x))) + Skip(L1(x)),
// with each branch layer wrapping its inference layer.
type CapsCell struct {
	CellName   string
	L1, L2, L3 Layer
	Skip       Layer
}

// Name implements Layer.
func (c *CapsCell) Name() string { return c.CellName }

// Forward implements Layer.
func (c *CapsCell) Forward(x *tensor.Tensor) *tensor.Tensor {
	return c.apply(x, Layer.Forward)
}

// apply evaluates the cell's graph with f running each branch layer, in
// caps.CapsCell's order.
func (c *CapsCell) apply(x *tensor.Tensor, f func(Layer, *tensor.Tensor) *tensor.Tensor) *tensor.Tensor {
	a := f(c.L1, x)
	main := f(c.L3, f(c.L2, a))
	skip := f(c.Skip, a)
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
	// Net is the wrapped inference network whose weights the layers
	// train (nil for a stack assembled by hand).
	Net    *caps.Network
	Layers []Layer
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
