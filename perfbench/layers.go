package main

import (
	"fmt"
	"time"

	"redcane/internal/axe"
	"redcane/internal/caps"
	"redcane/internal/models"
	"redcane/internal/noise"
	"redcane/internal/tensor"
	"redcane/internal/train"
)

// layerReps is how many times the kernel suite times each call; it
// reports the median.
const layerReps = 5

// layerBatch is the inference batch the caps and axe rows run.
const layerBatch = 8

// timeMedian runs f layerReps times under spans named name and returns
// the median duration in ms.
func timeMedian(sp *span, name string, f func()) float64 {
	var ds []float64
	for i := 0; i < layerReps; i++ {
		csp := sp.child(name)
		t0 := time.Now()
		f()
		ds = append(ds, ms(time.Since(t0)))
		csp.end()
	}
	return median(ds)
}

// execLayer is a caps layer that runs on a pluggable backend.
type execLayer interface {
	ForwardExec(x *tensor.Tensor, inj noise.Injector, s *tensor.Scratch, be caps.Backend) *tensor.Tensor
}

// layerSuite measures every layer kernel in isolation on the shapes the
// workloads run: DeepCaps layers under each backend, the quantized and
// float conv and GEMM kernels, noise injection, and the CapsNet training
// layers. It adds their metrics to m and returns the per-layer table.
func (b *bench) layerSuite(m metrics, tr *tracer) ([]layerRow, error) {
	sp := tr.root("layers", 0)
	defer sp.end()
	ds, err := b.dataset("cifar-like", 0, layerBatch, nil)
	if err != nil {
		return nil, err
	}
	net, err := b.loadNetwork("deepcaps-cifar-like", ds, nil)
	if err != nil {
		return nil, err
	}
	approxBe, err := approxBackend(net)
	if err != nil {
		return nil, err
	}
	backends := []struct {
		name string
		be   caps.Backend
	}{
		{"float", caps.Float{}},
		{"quant-exact", axe.QuantExact{Bits: validateBits}},
		{"quant-approx", approxBe},
	}
	macs := layerMACs(net)
	var rows []layerRow
	for _, l := range net.Layers {
		m.set("caps."+l.Name()+".macs_per_example", macs[l.Name()], "count")
	}
	for _, be := range backends {
		bsp := sp.child("caps." + be.name)
		x := ds.TestX
		s := tensor.NewScratch()
		for _, l := range net.Layers {
			el, ok := l.(execLayer)
			if !ok {
				return nil, fmt.Errorf("layer %s has no ForwardExec", l.Name())
			}
			var y *tensor.Tensor
			t := timeMedian(bsp, "caps."+l.Name()+".ForwardExec", func() {
				y = el.ForwardExec(x, noise.None{}, s, be.be)
			}) / layerBatch
			row := layerRow{Layer: l.Name(), Backend: be.name, MS: t, MACs: macs[l.Name()]}
			rows = append(rows, row)
			prefix := "caps." + l.Name() + "." + be.name
			m.set(prefix+".ms_per_example", t, "ms")
			m.set(prefix+".gmac_per_s", row.gmacPerS(), "GMAC/s")
			x = y
		}
		bsp.end()
	}
	convs, votes := kernelCalls(net, ds.TestX)
	for _, be := range backends {
		bsp := sp.child("kernels." + be.name)
		var convMACs, convMS float64
		for _, c := range convs {
			convMACs += c.macs
			convMS += timeMedian(bsp, "Backend.Conv2D", func() {
				be.be.Conv2D(c.layer, c.x, c.w, c.bias, c.stride, c.pad, nil)
			})
		}
		voteMS := timeMedian(bsp, "Backend.CapsVotes", func() {
			be.be.CapsVotes(votes.layer, votes.u, votes.w, nil)
		})
		bsp.end()
		if be.name == "float" {
			continue // the float kernels are measured through tensor below
		}
		m.set("axe.conv2d."+be.name+".gmac_per_s", convMACs/(convMS*1e6), "GMAC/s")
		m.set("axe.caps_votes."+be.name+".gmac_per_s", votes.macs/(voteMS*1e6), "GMAC/s")
	}
	tensorKernels(m, sp, convs)
	noiseKernel(m, sp)
	if err := b.trainLayers(m, sp); err != nil {
		return nil, err
	}
	return rows, nil
}

// layerMACs is each top-level layer's multiplications per example, from
// Network.OpsByLayer (which splits cells into their capsule layers).
func layerMACs(net *caps.Network) map[string]float64 {
	byLayer := net.OpsByLayer(1)
	out := map[string]float64{}
	for _, l := range net.Layers {
		if cell, ok := l.(*caps.CapsCell); ok {
			for _, sub := range []caps.Layer{cell.L1, cell.L2, cell.L3, cell.Skip} {
				out[l.Name()] += byLayer[sub.Name()].Mul
			}
			continue
		}
		out[l.Name()] = byLayer[l.Name()].Mul
	}
	return out
}

// convCall is one Backend.Conv2D call of a DeepCaps forward pass.
type convCall struct {
	layer       string
	x, w, bias  *tensor.Tensor
	stride, pad int
	macs        float64
}

// votesCall is the ClassCaps Backend.CapsVotes call.
type votesCall struct {
	layer string
	u, w  *tensor.Tensor
	macs  float64
}

// kernelCalls records the inputs of every Conv2D-kernel call (the stem
// and each ConvCaps2D) and of the ClassCaps vote kernel on a float
// forward pass of x.
func kernelCalls(net *caps.Network, x *tensor.Tensor) ([]convCall, votesCall) {
	var convs []convCall
	var votes votesCall
	add := func(name string, in, w, bias *tensor.Tensor, stride, pad int) {
		n, inCh, h, wd := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
		outCh, k := w.Shape[0], w.Shape[2]
		oh, ow := (h+2*pad-k)/stride+1, (wd+2*pad-k)/stride+1
		convs = append(convs, convCall{
			layer: name, x: in, w: w, bias: bias, stride: stride, pad: pad,
			macs: float64(n * outCh * oh * ow * inCh * k * k),
		})
	}
	addCaps := func(l caps.Layer, in *tensor.Tensor) {
		if c, ok := l.(*caps.ConvCaps2D); ok {
			add(c.LayerName, in, c.W, c.B, c.Stride, c.Pad)
		}
	}
	for _, l := range net.Layers {
		switch l := l.(type) {
		case *caps.Conv2D:
			add(l.LayerName, x, l.W, l.B, l.Stride, l.Pad)
		case *caps.CapsCell:
			a := l.L1.Forward(x, noise.None{})
			b := l.L2.Forward(a, noise.None{})
			addCaps(l.L1, x)
			addCaps(l.L2, a)
			addCaps(l.L3, b)
			addCaps(l.Skip, a)
		case *caps.ClassCaps:
			u := train.FlattenToCaps(x, l.InCaps, l.InDim)
			votes = votesCall{
				layer: l.LayerName, u: u, w: l.W,
				macs: float64(u.Shape[0] * l.InCaps * l.OutCaps * l.OutDim * l.InDim),
			}
		}
		x = l.Forward(x, noise.None{})
	}
	return convs, votes
}

// tensorKernels measures the float kernels: conv and MatMulT on the
// DeepCaps inference shapes, MatMulAT and im2col/col2im on the CapsNet
// training shapes (the PrimaryCaps weight gradient at batch 32).
func tensorKernels(m metrics, sp *span, convs []convCall) {
	ksp := sp.child("tensor")
	defer ksp.end()
	var convMACs, convMS, mmFlops, mmMS float64
	for _, c := range convs {
		convMACs += c.macs
		convMS += timeMedian(ksp, "tensor.Conv2D", func() {
			tensor.Conv2D(c.x, c.w, c.bias, c.stride, c.pad)
		})
		spec := tensor.ConvSpec{KH: c.w.Shape[2], KW: c.w.Shape[3], Stride: c.stride, Pad: c.pad,
			OutCh: c.w.Shape[0], InCh: c.w.Shape[1]}
		cols := tensor.Im2Col(c.x, spec)
		wmat := c.w.Reshape(spec.OutCh, spec.InCh*spec.KH*spec.KW)
		mmFlops += 2 * float64(cols.Shape[0]*cols.Shape[1]*spec.OutCh)
		mmMS += timeMedian(ksp, "tensor.MatMulT", func() { tensor.MatMulT(cols, wmat) })
	}
	m.set("tensor.conv2d.gmac_per_s", convMACs/(convMS*1e6), "GMAC/s")
	m.set("tensor.matmul_t.gflop_per_s", mmFlops/(mmMS*1e6), "GFLOP/s")

	// CapsNet PrimaryCaps in training: 9×9 stride-2 conv from 32 channels
	// over the 12×12 stem output, batch 32.
	const batch, inCh, hw, outCh, k = 32, 32, 12, 64, 9
	spec := tensor.ConvSpec{KH: k, KW: k, Stride: 2, Pad: 0, OutCh: outCh, InCh: inCh}
	rng := tensor.NewRNG(7)
	x := tensor.New(batch, inCh, hw, hw).FillGlorot(rng, 1, 1)
	var cols *tensor.Tensor
	im2col := timeMedian(ksp, "tensor.Im2Col", func() { cols = tensor.Im2Col(x, spec) })
	col2im := timeMedian(ksp, "tensor.Col2Im", func() { tensor.Col2Im(cols, batch, inCh, hw, hw, spec) })
	m.set("tensor.im2col_col2im_ms", im2col+col2im, "ms")
	gy := tensor.New(cols.Shape[0], outCh).FillGlorot(rng, 1, 1)
	at := timeMedian(ksp, "tensor.MatMulAT", func() { tensor.MatMulAT(gy, cols) })
	m.set("tensor.matmul_at.gflop_per_s", 2*float64(cols.Shape[0]*cols.Shape[1]*outCh)/(at*1e6), "GFLOP/s")
}

// noiseKernel measures Gaussian noise injection on a 1 Mi-element
// activation tensor.
func noiseKernel(m metrics, sp *span) {
	const n = 1 << 20
	x := tensor.New(n)
	inj := noise.NewGaussian(0.05, 0, noise.All(), 3)
	site := noise.Site{Layer: "Conv2D", Group: noise.MACOutputs}
	t := timeMedian(sp, "noise.Gaussian.Inject", func() { inj.Inject(site, x) })
	m.set("noise.inject.ns_per_element", t*1e6/n, "ns")
}

// trainLayers times each CapsNet training layer's Forward and Backward
// through train.Model.Layers on a batch of 32 MNIST-like examples.
func (b *bench) trainLayers(m metrics, sp *span) error {
	tsp := sp.child("train")
	defer tsp.end()
	ds, err := b.dataset("mnist-like", 32, 0, nil)
	if err != nil {
		return err
	}
	model, err := models.BuildTrainer(models.CapsNet([]int{ds.Channels, ds.H, ds.W}, ds.Classes()), b.opts.seed)
	if err != nil {
		return err
	}
	// A layer's Backward consumes what its Forward cached, so each
	// repetition is a whole forward and backward pass.
	fwd := make([][]float64, len(model.Layers))
	bwd := make([][]float64, len(model.Layers))
	for r := 0; r < layerReps; r++ {
		x := ds.TrainX
		for i, l := range model.Layers {
			csp := tsp.child("train." + l.Name() + ".Forward")
			t0 := time.Now()
			x = l.Forward(x)
			fwd[i] = append(fwd[i], ms(time.Since(t0)))
			csp.end()
		}
		_, gy := train.MarginLoss(x, ds.TrainY)
		for i := len(model.Layers) - 1; i >= 0; i-- {
			l := model.Layers[i]
			csp := tsp.child("train." + l.Name() + ".Backward")
			t0 := time.Now()
			gy = l.Backward(gy)
			bwd[i] = append(bwd[i], ms(time.Since(t0)))
			csp.end()
		}
	}
	for i, l := range model.Layers {
		m.set("train."+l.Name()+".forward_ms", median(fwd[i]), "ms")
		m.set("train."+l.Name()+".backward_ms", median(bwd[i]), "ms")
	}
	return nil
}
