package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSoftmaxSumsToOne(t *testing.T) {
	x := New(3, 5, 2).FillNormal(NewRNG(2), 0, 3)
	sm := Softmax(x, 1)
	for o := 0; o < 3; o++ {
		for i := 0; i < 2; i++ {
			s := 0.0
			for a := 0; a < 5; a++ {
				v := sm.At(o, a, i)
				if v < 0 || v > 1 {
					t.Fatalf("softmax out of [0,1]: %g", v)
				}
				s += v
			}
			if !almostEqual(s, 1, 1e-12) {
				t.Fatalf("softmax slice sums to %g", s)
			}
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	// Very large logits must not overflow.
	x := NewFrom([]float64{1000, 1001, 999}, 3)
	sm := Softmax(x, 0)
	for _, v := range sm.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax unstable: %v", sm.Data)
		}
	}
	if sm.Argmax() != 1 {
		t.Fatalf("softmax argmax = %d", sm.Argmax())
	}
}

func TestSoftmaxUniformOnEqualLogits(t *testing.T) {
	x := New(4).Fill(3.3)
	sm := Softmax(x, 0)
	for _, v := range sm.Data {
		if !almostEqual(v, 0.25, 1e-12) {
			t.Fatalf("softmax of constant = %v", sm.Data)
		}
	}
}

func TestSquashNormBounded(t *testing.T) {
	f := func(raw [8]float64) bool {
		x := NewFrom(clipSlice(raw[:]), 2, 4)
		sq := Squash(x, 1)
		for o := 0; o < 2; o++ {
			n := 0.0
			for a := 0; a < 4; a++ {
				v := sq.At(o, a)
				n += v * v
			}
			if math.Sqrt(n) >= 1.0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSquashPreservesDirection(t *testing.T) {
	x := NewFrom([]float64{3, 4}, 1, 2)
	sq := Squash(x, 1)
	// Direction (3,4)/5 preserved; norm = 25/26.
	wantNorm := 25.0 / 26.0
	gotNorm := math.Hypot(sq.At(0, 0), sq.At(0, 1))
	if !almostEqual(gotNorm, wantNorm, 1e-9) {
		t.Fatalf("squash norm = %g, want %g", gotNorm, wantNorm)
	}
	if !almostEqual(sq.At(0, 0)/sq.At(0, 1), 3.0/4.0, 1e-9) {
		t.Fatalf("squash changed direction: %v", sq.Data)
	}
}

func TestSquashZeroVector(t *testing.T) {
	x := New(1, 4)
	sq := Squash(x, 1)
	for _, v := range sq.Data {
		if math.IsNaN(v) || v != 0 {
			t.Fatalf("squash(0) = %v", sq.Data)
		}
	}
}

func TestSquashMonotoneInNorm(t *testing.T) {
	// Larger input norms map to larger output norms (saturating to 1).
	prev := -1.0
	for _, scale := range []float64{0.1, 0.5, 1, 2, 10, 100} {
		x := NewFrom([]float64{scale, 0}, 1, 2)
		n := math.Hypot(Squash(x, 1).At(0, 0), Squash(x, 1).At(0, 1))
		if n <= prev {
			t.Fatalf("squash norm not monotone at scale %g: %g <= %g", scale, n, prev)
		}
		prev = n
	}
}

func TestSquashBackwardNumeric(t *testing.T) {
	x := randTensor(61, 2, 5, 3)
	gy := randTensor(62, 2, 5, 3)
	gx := SquashBackward(x, gy, 1)
	const eps = 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		plus := Mul(Squash(x, 1), gy).Sum()
		x.Data[i] = orig - eps
		minus := Mul(Squash(x, 1), gy).Sum()
		x.Data[i] = orig
		numeric := (plus - minus) / (2 * eps)
		if !almostEqual(gx.Data[i], numeric, 1e-4*(1+math.Abs(numeric))) {
			t.Fatalf("squash grad[%d] = %g, numeric %g", i, gx.Data[i], numeric)
		}
	}
}

func TestReLU(t *testing.T) {
	x := NewFrom([]float64{-1, 0, 2}, 3)
	r := ReLU(x)
	if r.Data[0] != 0 || r.Data[1] != 0 || r.Data[2] != 2 {
		t.Fatalf("ReLU = %v", r.Data)
	}
}

func TestReLUBackward(t *testing.T) {
	x := NewFrom([]float64{-1, 0.5, 2, 0}, 4)
	gy := NewFrom([]float64{10, 10, 10, 10}, 4)
	gx := ReLUBackward(x, gy)
	want := []float64{0, 10, 10, 0}
	for i := range want {
		if gx.Data[i] != want[i] {
			t.Fatalf("ReLUBackward = %v, want %v", gx.Data, want)
		}
	}
}

func TestNormAxis(t *testing.T) {
	x := NewFrom([]float64{3, 4, 0, 0, 5, 12}, 3, 2)
	n := NormAxis(x, 1)
	want := []float64{5, 0, 13}
	for i := range want {
		if !almostEqual(n.Data[i], want[i], 1e-12) {
			t.Fatalf("NormAxis = %v, want %v", n.Data, want)
		}
	}
}

func TestAxisOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Softmax(New(2, 2), 2)
}

func TestHistogramBinsAndClamp(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.ObserveAll([]float64{-5, 0.5, 5.5, 9.9, 50})
	if h.N != 5 {
		t.Fatalf("N = %d", h.N)
	}
	if h.Counts[0] != 2 { // -5 clamps into bin 0 alongside 0.5
		t.Fatalf("bin 0 = %d", h.Counts[0])
	}
	if h.Counts[9] != 2 { // 9.9 and clamped 50
		t.Fatalf("bin 9 = %d", h.Counts[9])
	}
	if !almostEqual(h.BinCenter(0), 0.5, 1e-12) {
		t.Fatalf("BinCenter(0) = %g", h.BinCenter(0))
	}
	if !almostEqual(h.Frequency(0), 0.4, 1e-12) {
		t.Fatalf("Frequency(0) = %g", h.Frequency(0))
	}
	if h.Render(20) == "" {
		t.Fatal("Render returned empty")
	}
}

func TestFitGaussianRecoversParameters(t *testing.T) {
	rng := NewRNG(7)
	vs := make([]float64, 20000)
	for i := range vs {
		vs[i] = 3 + 2*rng.NormFloat64()
	}
	fit := FitGaussian(vs)
	if !almostEqual(fit.Mean, 3, 0.05) || !almostEqual(fit.Std, 2, 0.05) {
		t.Fatalf("fit = %+v", fit)
	}
	if fit.KS > 0.02 {
		t.Fatalf("KS too large for true Gaussian: %g", fit.KS)
	}
}

func TestFitGaussianDetectsNonGaussian(t *testing.T) {
	// A two-point distribution is maximally non-Gaussian.
	vs := make([]float64, 1000)
	for i := range vs {
		if i%2 == 0 {
			vs[i] = -1
		} else {
			vs[i] = 1
		}
	}
	fit := FitGaussian(vs)
	if fit.KS < 0.2 {
		t.Fatalf("KS should flag bimodal sample, got %g", fit.KS)
	}
}

func TestFitGaussianDegenerate(t *testing.T) {
	if fit := FitGaussian(nil); fit.Mean != 0 || fit.Std != 0 {
		t.Fatalf("empty fit = %+v", fit)
	}
	fit := FitGaussian([]float64{5, 5, 5})
	if fit.Std != 0 || fit.KS != 1 {
		t.Fatalf("constant fit = %+v", fit)
	}
}

func TestFillDeterminism(t *testing.T) {
	a := New(100).FillNormal(NewRNG(9), 0, 1)
	b := New(100).FillNormal(NewRNG(9), 0, 1)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed must reproduce identical fills")
		}
	}
	c := New(100).FillNormal(NewRNG(10), 0, 1)
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fills")
	}
}

func TestFillUniformRange(t *testing.T) {
	x := New(1000).FillUniform(NewRNG(3), -2, 5)
	lo, hi := x.MinMax()
	if lo < -2 || hi >= 5 {
		t.Fatalf("uniform fill out of range: [%g, %g]", lo, hi)
	}
}

func TestGlorotHeScale(t *testing.T) {
	g := New(10000).FillGlorot(NewRNG(4), 100, 100)
	limit := math.Sqrt(6.0 / 200.0)
	lo, hi := g.MinMax()
	if lo < -limit || hi > limit {
		t.Fatalf("glorot out of [-%g, %g]", limit, limit)
	}
	h := New(10000).FillHe(NewRNG(5), 50)
	wantStd := math.Sqrt(2.0 / 50.0)
	if !almostEqual(h.Std(), wantStd, 0.01) {
		t.Fatalf("he std = %g, want %g", h.Std(), wantStd)
	}
}

func TestPercentileRange(t *testing.T) {
	// 0..100 uniform grid: full range 100, robust range trims outliers.
	data := make([]float64, 101)
	for i := range data {
		data[i] = float64(i)
	}
	data[100] = 1e6 // outlier
	x := NewFrom(data, 101)
	if r := PercentileRange(x, 0, 100); r != 1e6 {
		t.Fatalf("full percentile range = %g", r)
	}
	robust := PercentileRange(x, 1, 99)
	if robust < 90 || robust > 100 {
		t.Fatalf("robust range = %g, want ≈98", robust)
	}
	if PercentileRange(New(0), 0, 100) != 0 {
		t.Fatal("empty percentile range != 0")
	}
}
