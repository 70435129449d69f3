package train

import (
	"math"

	"redcane/internal/tensor"
)

// LSUVInit performs a layer-sequential unit-variance style initialization
// (Mishkin & Matas, ICLR 2016) on the model: for each layer in forward
// order, its weights are rescaled until the standard deviation of its
// pre-activation (pre-squash MAC outputs, or routing votes) reaches
// `target` on the calibration batch x.
//
// Deep capsule stacks need this because the squashing nonlinearity damps
// small vectors quadratically: with plain Glorot initialization the
// activations of a 17-layer DeepCaps collapse to ~1e-40 by the last cell
// and no gradient survives. The reference DeepCaps implementation solves
// this with batch normalization; rescaling the initial weights achieves
// the same signal propagation without adding inference-time machinery.
func LSUVInit(m *Model, x *tensor.Tensor, target float64) {
	for _, l := range m.Layers {
		x = lsuvLayer(l, x, target)
	}
}

// lsuvLayer calibrates one layer (recursing into cells) and returns its
// output on the calibration batch.
func lsuvLayer(l Layer, x *tensor.Tensor, target float64) *tensor.Tensor {
	if cell, ok := l.(*CapsCell); ok {
		return cell.apply(x, func(l Layer, x *tensor.Tensor) *tensor.Tensor {
			return lsuvLayer(l, x, target)
		})
	}
	const maxIters = 8
	var y *tensor.Tensor
	for it := 0; it < maxIters; it++ {
		y = l.Forward(x)
		std := preActStd(l)
		if std <= 0 {
			return y
		}
		scale := target / std
		if math.Abs(scale-1) < 0.02 {
			return y
		}
		for _, p := range l.Params() {
			p.W.ScaleInPlace(scale)
		}
	}
	return l.Forward(x)
}

// preActStd reports the pre-activation std of a freshly Forwarded layer
// (0 for layers without one).
func preActStd(l Layer) float64 {
	if t, ok := l.(interface{ preAct() *tensor.Tensor }); ok {
		return t.preAct().Std()
	}
	return 0
}
