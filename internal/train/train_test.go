package train

import (
	"context"
	"errors"
	"math"
	"testing"

	"redcane/internal/datasets"
	"redcane/internal/tensor"
)

// numericCheck verifies an analytic gradient against central differences
// for a scalar objective sum(out · dir).
func numericCheck(t *testing.T, name string, forward func() *tensor.Tensor, target *tensor.Tensor, analytic *tensor.Tensor, dir *tensor.Tensor, tol float64) {
	t.Helper()
	const eps = 1e-5
	stride := 1
	if target.Len() > 200 {
		stride = target.Len() / 200
	}
	for i := 0; i < target.Len(); i += stride {
		orig := target.Data[i]
		target.Data[i] = orig + eps
		plus := tensor.Mul(forward(), dir).Sum()
		target.Data[i] = orig - eps
		minus := tensor.Mul(forward(), dir).Sum()
		target.Data[i] = orig
		numeric := (plus - minus) / (2 * eps)
		if math.Abs(analytic.Data[i]-numeric) > tol*(1+math.Abs(numeric)) {
			t.Fatalf("%s grad[%d] = %g, numeric %g", name, i, analytic.Data[i], numeric)
		}
	}
}

func TestConv2DLayerGradients(t *testing.T) {
	l := NewConv2D("c", 2, 3, 3, 1, 1, true, 1)
	x := tensor.New(2, 2, 5, 5).FillNormal(tensor.NewRNG(2), 0, 1)
	out := l.Forward(x)
	dir := tensor.New(out.Shape...).FillNormal(tensor.NewRNG(3), 0, 1)
	l.W.ZeroGrad()
	l.B.ZeroGrad()
	gx := l.Backward(dir)

	fw := func() *tensor.Tensor { return l.Forward(x) }
	numericCheck(t, "conv/x", fw, x, gx, dir, 1e-4)
	numericCheck(t, "conv/W", fw, l.W.W, l.W.G, dir, 1e-4)
	numericCheck(t, "conv/B", fw, l.B.W, l.B.G, dir, 1e-4)
}

func TestConvCaps2DLayerGradients(t *testing.T) {
	l := NewConvCaps2D("cc", 2, 2, 4, 3, 2, 1, 4)
	x := tensor.New(1, 2, 6, 6).FillNormal(tensor.NewRNG(5), 0, 1)
	out := l.Forward(x)
	dir := tensor.New(out.Shape...).FillNormal(tensor.NewRNG(6), 0, 1)
	l.W.ZeroGrad()
	l.B.ZeroGrad()
	gx := l.Backward(dir)

	fw := func() *tensor.Tensor { return l.Forward(x) }
	numericCheck(t, "caps2d/x", fw, x, gx, dir, 1e-4)
	numericCheck(t, "caps2d/W", fw, l.W.W, l.W.G, dir, 1e-4)
}

func TestClassCapsGradientsStraightThrough(t *testing.T) {
	// With a single routing iteration the coupling coefficients are
	// constants (uniform), so the straight-through gradient is exact.
	l := NewClassCaps("cls", 6, 4, 3, 4, 1, 7)
	x := tensor.New(2, 6, 4).FillNormal(tensor.NewRNG(8), 0, 1)
	out := l.Forward(x)
	dir := tensor.New(out.Shape...).FillNormal(tensor.NewRNG(9), 0, 1)
	l.W.ZeroGrad()
	gx := l.Backward(dir)

	fw := func() *tensor.Tensor { return l.Forward(x) }
	numericCheck(t, "classcaps/x", fw, x, gx, dir, 1e-4)
	numericCheck(t, "classcaps/W", fw, l.W.W, l.W.G, dir, 1e-4)
}

func TestConvCaps3DGradientsStraightThrough(t *testing.T) {
	l := NewConvCaps3D("c3d", 2, 4, 2, 4, 3, 1, 1, 1, 10)
	x := tensor.New(1, 8, 4, 4).FillNormal(tensor.NewRNG(11), 0, 1)
	out := l.Forward(x)
	dir := tensor.New(out.Shape...).FillNormal(tensor.NewRNG(12), 0, 1)
	l.W.ZeroGrad()
	gx := l.Backward(dir)

	fw := func() *tensor.Tensor { return l.Forward(x) }
	numericCheck(t, "caps3d/x", fw, x, gx, dir, 1e-4)
	numericCheck(t, "caps3d/W", fw, l.W.W, l.W.G, dir, 1e-4)
}

func TestMarginLossValueAndGradient(t *testing.T) {
	// Perfect prediction: correct capsule at norm ≥ 0.9, others ≤ 0.1.
	v := tensor.New(1, 2, 2)
	v.Set(0.95, 0, 0, 0) // class 0 norm 0.95
	v.Set(0.05, 0, 1, 0) // class 1 norm 0.05
	loss, grad := MarginLoss(v, []int{0})
	if loss != 0 {
		t.Fatalf("perfect-prediction loss = %g", loss)
	}
	for _, g := range grad.Data {
		if g != 0 {
			t.Fatalf("perfect-prediction grad = %v", grad.Data)
		}
	}

	// Worst case: correct capsule at 0, wrong capsule at 1.
	v2 := tensor.New(1, 2, 2)
	v2.Set(1.0, 0, 1, 0)
	loss2, _ := MarginLoss(v2, []int{0})
	want := 0.9*0.9 + 0.5*0.9*0.9
	if math.Abs(loss2-want) > 1e-5 {
		t.Fatalf("worst-case loss = %g, want %g", loss2, want)
	}
}

func TestMarginLossGradientNumeric(t *testing.T) {
	v := tensor.New(3, 4, 5).FillNormal(tensor.NewRNG(13), 0, 0.5)
	labels := []int{0, 2, 3}
	_, grad := MarginLoss(v, labels)
	const eps = 1e-6
	for i := 0; i < v.Len(); i += 7 {
		orig := v.Data[i]
		v.Data[i] = orig + eps
		lp, _ := MarginLoss(v, labels)
		v.Data[i] = orig - eps
		lm, _ := MarginLoss(v, labels)
		v.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(grad.Data[i]-numeric) > 1e-5*(1+math.Abs(numeric)) {
			t.Fatalf("margin grad[%d] = %g, numeric %g", i, grad.Data[i], numeric)
		}
	}
}

func TestPredictPicksLargestNorm(t *testing.T) {
	v := tensor.New(2, 3, 2)
	v.Set(0.9, 0, 1, 0) // sample 0 → class 1
	v.Set(0.8, 1, 2, 1) // sample 1 → class 2
	preds := Predict(v)
	if preds[0] != 1 || preds[1] != 2 {
		t.Fatalf("Predict = %v", preds)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)² with Adam.
	p := newParam("p", tensor.New(1))
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.G.Data[0] = 2 * (p.W.Data[0] - 3)
		opt.Step([]*Param{p})
	}
	if math.Abs(p.W.Data[0]-3) > 0.01 {
		t.Fatalf("Adam converged to %g, want 3", p.W.Data[0])
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	x := tensor.New(2, 8, 3, 3).FillNormal(tensor.NewRNG(14), 0, 1)
	flat := FlattenToCaps(x, 2*3*3, 4)
	back := UnflattenFromCaps(flat, x.Shape, 4)
	for i := range x.Data {
		if math.Abs(back.Data[i]-x.Data[i]) > 1e-15 {
			t.Fatal("flatten/unflatten not inverse")
		}
	}
}

func TestClipGrads(t *testing.T) {
	p := newParam("p", tensor.New(2))
	p.G.Data[0], p.G.Data[1] = 3, 4 // norm 5
	clipGrads([]*Param{p}, 1)
	norm := math.Hypot(p.G.Data[0], p.G.Data[1])
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("clipped norm = %g", norm)
	}
	// Under the cap: untouched.
	p.G.Data[0], p.G.Data[1] = 0.1, 0.1
	clipGrads([]*Param{p}, 1)
	if p.G.Data[0] != 0.1 {
		t.Fatal("clip must not touch small gradients")
	}
}

func TestFitLearnsTinyProblem(t *testing.T) {
	// A small CapsNet must fit a 3-class subset of the digit dataset far
	// above chance within a few epochs.
	if testing.Short() {
		t.Skip("training smoke test")
	}
	ds := datasets.MNISTLike(120, 60, 42)
	// Reduce to 3 classes for speed.
	ds = filterClasses(ds, 3)
	m := &Model{ModelName: "tiny", Layers: []Layer{
		NewConv2D("Conv2D", 1, 8, 9, 1, 0, true, 1),
		NewConvCaps2D("Primary", 8, 4, 8, 9, 2, 0, 2),
		NewClassCaps("ClassCaps", 4*2*2, 8, 3, 8, 3, 3),
	}}
	res := Fit(m, ds, Config{Epochs: 12, BatchSize: 12, LR: 2e-3, Seed: 7, GradClip: 5})
	if res.TestAccuracy < 0.7 {
		t.Fatalf("tiny CapsNet failed to learn: test acc %.2f, loss %.4f", res.TestAccuracy, res.FinalLoss)
	}
}

// filterClasses keeps only samples with label < k.
func filterClasses(d *datasets.Dataset, k int) *datasets.Dataset {
	sz := d.Channels * d.H * d.W
	pick := func(x *tensor.Tensor, y []int) (*tensor.Tensor, []int) {
		var idxs []int
		for i, label := range y {
			if label < k {
				idxs = append(idxs, i)
			}
		}
		nx := tensor.New(len(idxs), d.Channels, d.H, d.W)
		ny := make([]int, len(idxs))
		for j, i := range idxs {
			copy(nx.Data[j*sz:], x.Data[i*sz:(i+1)*sz])
			ny[j] = y[i]
		}
		return nx, ny
	}
	out := &datasets.Dataset{
		Name: d.Name, ClassNames: d.ClassNames[:k],
		Channels: d.Channels, H: d.H, W: d.W,
	}
	out.TrainX, out.TrainY = pick(d.TrainX, d.TrainY)
	out.TestX, out.TestY = pick(d.TestX, d.TestY)
	return out
}

func TestFitCtxCancellation(t *testing.T) {
	ds := datasets.MNISTLike(60, 20, 42)
	ds = filterClasses(ds, 3)
	m := &Model{ModelName: "tiny", Layers: []Layer{
		NewConv2D("Conv2D", 1, 4, 9, 2, 0, true, 1),
		NewClassCaps("ClassCaps", 4*6*6/4, 4, 3, 6, 3, 3),
	}}

	// A pre-cancelled context stops before the first batch.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := FitCtx(ctx, m, ds, Config{Epochs: 2, BatchSize: 12, LR: 1e-3, Seed: 7})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if res.Epochs != 0 {
		t.Fatalf("cancelled run reported %d epochs", res.Epochs)
	}

	// A background context behaves exactly like the legacy Fit wrapper.
	if _, err := FitCtx(context.Background(), m, ds, Config{Epochs: 1, BatchSize: 12, LR: 1e-3, Seed: 7}); err != nil {
		t.Fatal(err)
	}
}
