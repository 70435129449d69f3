package models

import (
	"testing"

	"redcane/internal/noise"
	"redcane/internal/params"
	"redcane/internal/tensor"
)

func TestDeepCapsGeometryAndLayerInventory(t *testing.T) {
	spec := DeepCaps([]int{3, 16, 16}, 10)
	net, err := BuildInference(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	names := net.LayerNames()
	// The paper's Fig. 10 inventory: Conv2D, Caps2D1..15, Caps3D, ClassCaps.
	if len(names) != 18 {
		t.Fatalf("layer count = %d (%v), want 18", len(names), names)
	}
	if names[0] != "Conv2D" || names[len(names)-1] != "ClassCaps" {
		t.Fatalf("layer names = %v", names)
	}
	found3D := false
	caps2d := 0
	for _, n := range names {
		if n == "Caps3D" {
			found3D = true
		}
		if len(n) > 6 && n[:6] == "Caps2D" {
			caps2d++
		}
	}
	if !found3D || caps2d != 15 {
		t.Fatalf("inventory: caps2d=%d caps3d=%v (%v)", caps2d, found3D, names)
	}
}

func TestDeepCapsForwardShape(t *testing.T) {
	spec := DeepCaps([]int{3, 16, 16}, 10)
	net, err := BuildInference(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 3, 16, 16).FillUniform(tensor.NewRNG(3), 0, 1)
	out := net.Forward(x, noise.None{})
	if out.Shape[0] != 2 || out.Shape[1] != 10 || out.Shape[2] != 16 {
		t.Fatalf("output shape = %v", out.Shape)
	}
}

func TestCapsNetGeometry(t *testing.T) {
	spec := CapsNet([]int{1, 20, 20}, 10)
	net, err := BuildInference(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	names := net.LayerNames()
	want := []string{"Conv2D", "Primary", "ClassCaps"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	x := tensor.New(1, 1, 20, 20).FillUniform(tensor.NewRNG(5), 0, 1)
	out := net.Forward(x, noise.None{})
	if out.Shape[1] != 10 || out.Shape[2] != 16 {
		t.Fatalf("output shape = %v", out.Shape)
	}
}

func TestTrainerMatchesInferenceAfterWeightTransfer(t *testing.T) {
	// The entire resilience methodology depends on this: weights trained
	// in internal/train must produce bit-identical outputs when loaded
	// into the internal/caps inference network.
	for _, spec := range []Spec{
		CapsNet([]int{1, 20, 20}, 4),
		DeepCaps([]int{3, 16, 16}, 4),
	} {
		trainer, err := BuildTrainer(spec, 10)
		if err != nil {
			t.Fatal(err)
		}
		net, err := BuildInference(spec, 999) // different init on purpose
		if err != nil {
			t.Fatal(err)
		}
		store := params.FromParams(trainer.Net.Params())
		if err := store.LoadInto(net.Params()); err != nil {
			t.Fatalf("%s: transfer: %v", spec.Name, err)
		}
		x := tensor.New(2, spec.InputShape[0], spec.InputShape[1], spec.InputShape[2]).
			FillUniform(tensor.NewRNG(11), 0, 1)
		wantOut := trainer.Forward(x)
		gotOut := net.Forward(x, noise.None{})
		if !wantOut.SameShape(gotOut) {
			t.Fatalf("%s: shapes %v vs %v", spec.Name, wantOut.Shape, gotOut.Shape)
		}
		for i := range wantOut.Data {
			if wantOut.Data[i] != gotOut.Data[i] {
				t.Fatalf("%s: output[%d] = %g (inference) vs %g (trainer)",
					spec.Name, i, gotOut.Data[i], wantOut.Data[i])
			}
		}
	}
}

func TestFullDeepCapsOpCountsShape(t *testing.T) {
	// Table I shape: multiplications and additions in the 10⁹ range and
	// within 2× of each other; div/exp/sqrt orders of magnitude rarer.
	spec := FullDeepCaps()
	net, err := BuildInference(spec, 20)
	if err != nil {
		t.Fatal(err)
	}
	ops := net.Ops(1)
	if ops.Mul < 5e8 || ops.Mul > 5e9 {
		t.Fatalf("full DeepCaps mul count = %g, want ~10⁹", ops.Mul)
	}
	ratio := ops.Mul / ops.Add
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("mul/add ratio = %g, want ≈1 (paper: 2.15G/1.91G)", ratio)
	}
	if ops.Div > ops.Mul/50 {
		t.Fatalf("div count %g too large vs mul %g", ops.Div, ops.Mul)
	}
	if ops.Exp > ops.Div || ops.Sqrt > ops.Div {
		t.Fatalf("exp/sqrt (%g/%g) should be rarer than div (%g)", ops.Exp, ops.Sqrt, ops.Div)
	}
}

func TestGeometryErrors(t *testing.T) {
	spec := CapsNet([]int{1, 5, 5}, 10) // too small for 9×9 convs
	if _, err := BuildInference(spec, 1); err == nil {
		t.Fatal("expected geometry error for tiny input")
	}
	bad := Spec{Name: "bad", InputShape: []int{1, 20, 20}, Conv: ConvSpec{Out: 4, K: 3, Stride: 1, Pad: 1}}
	if _, err := BuildInference(bad, 1); err == nil {
		t.Fatal("expected error for spec without cells or primary caps")
	}
	if _, err := BuildTrainer(bad, 1); err == nil {
		t.Fatal("expected trainer error for bad spec")
	}
}

func TestParamNameParity(t *testing.T) {
	spec := DeepCaps([]int{3, 16, 16}, 10)
	trainer, err := BuildTrainer(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildInference(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	tp := trainer.Params()
	np := net.Params()
	if len(tp) != len(np) {
		t.Fatalf("param counts differ: trainer %d vs inference %d", len(tp), len(np))
	}
	for _, p := range tp {
		w, ok := np[p.Name]
		if !ok {
			t.Fatalf("inference missing param %q", p.Name)
		}
		if !p.W.SameShape(w) {
			t.Fatalf("param %q shapes differ: %v vs %v", p.Name, p.W.Shape, w.Shape)
		}
	}
}

func TestDifferentSeedsDifferentWeights(t *testing.T) {
	spec := CapsNet([]int{1, 20, 20}, 10)
	a, _ := BuildInference(spec, 1)
	b, _ := BuildInference(spec, 2)
	wa := a.Params()["Conv2D/W"]
	wb := b.Params()["Conv2D/W"]
	same := true
	for i := range wa.Data {
		if wa.Data[i] != wb.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical weights")
	}
}
