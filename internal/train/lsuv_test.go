package train

import (
	"math"
	"testing"

	"redcane/internal/caps"
	"redcane/internal/tensor"
)

// deepStack builds a deliberately deep caps stack that collapses without
// LSUV.
func deepStack() *Model {
	layers := []Layer{newConv2D("Conv2D", 1, 8, 3, 1, 1, true, 1)}
	in := 8
	for i := 1; i <= 6; i++ {
		layers = append(layers, newConvCaps2D(layerName(i), in, 2, 4, 3, 1, 1, uint64(i+1)))
		in = 8
	}
	return &Model{Layers: layers}
}

func layerName(i int) string {
	return "Caps2D" + string(rune('0'+i))
}

func TestLSUVRestoresSignalPropagation(t *testing.T) {
	m := deepStack()
	x := tensor.New(8, 1, 10, 10).FillUniform(tensor.NewRNG(9), 0, 1)

	before := m.Forward(x).Std()
	LSUVInit(m, x, 0.5)
	after := m.Forward(x).Std()
	if after <= before {
		t.Fatalf("LSUV did not amplify collapsed activations: %g -> %g", before, after)
	}
	// The final layer's pre-activation std must sit near the target.
	last := m.Layers[len(m.Layers)-1].(*ConvCaps2D)
	if math.Abs(last.mac.Std()-0.5) > 0.05 {
		t.Fatalf("final pre-activation std = %g, want ≈0.5", last.mac.Std())
	}
}

func TestLSUVHandlesCells(t *testing.T) {
	cell := &CapsCell{
		CellName: "Cell1",
		L1:       newConvCaps2D("Caps2D1", 8, 2, 4, 3, 2, 1, 11),
		L2:       newConvCaps2D("Caps2D2", 8, 2, 4, 3, 1, 1, 12),
		L3:       newConvCaps2D("Caps2D3", 8, 2, 4, 3, 1, 1, 13),
		Skip:     newConvCaps2D("Caps2D4", 8, 2, 4, 3, 1, 1, 14),
	}
	m := &Model{Layers: []Layer{
		newConv2D("Conv2D", 1, 8, 3, 1, 1, true, 10),
		cell,
	}}
	x := tensor.New(4, 1, 8, 8).FillUniform(tensor.NewRNG(15), 0, 1)
	LSUVInit(m, x, 0.5)
	// Verify every inner layer was calibrated to a sane band by
	// re-running the stack and probing pre-activation stds.
	m.Forward(x)
	for _, l := range []Layer{cell.L1, cell.L2, cell.L3, cell.Skip} {
		std := preActStd(l)
		if std < 0.2 || std > 1.0 {
			t.Fatalf("%s pre-activation std = %g after LSUV", l.Name(), std)
		}
	}
}

func TestCapsCellForwardBackwardShapes(t *testing.T) {
	cell := &CapsCell{
		CellName: "Cell1",
		L1:       newConvCaps2D("Caps2D1", 4, 2, 4, 3, 2, 1, 21),
		L2:       newConvCaps2D("Caps2D2", 8, 2, 4, 3, 1, 1, 22),
		L3:       newConvCaps2D("Caps2D3", 8, 2, 4, 3, 1, 1, 23),
		Skip:     newConvCaps2D("Caps2D4", 8, 2, 4, 3, 1, 1, 24),
	}
	if cell.Name() != "Cell1" {
		t.Fatal("cell name")
	}
	x := tensor.New(2, 4, 8, 8).FillNormal(tensor.NewRNG(25), 0, 0.5)
	y := cell.Forward(x)
	if y.Shape[1] != 8 || y.Shape[2] != 4 {
		t.Fatalf("cell output shape = %v", y.Shape)
	}
	gy := tensor.New(y.Shape...).FillNormal(tensor.NewRNG(26), 0, 1)
	gx := cell.Backward(gy)
	if !gx.SameShape(x) {
		t.Fatalf("cell gx shape = %v", gx.Shape)
	}
	if len(cell.Params()) != 8 {
		t.Fatalf("cell params = %d", len(cell.Params()))
	}
}

func TestCapsCellGradientNumeric(t *testing.T) {
	cell := &CapsCell{
		CellName: "C",
		L1:       newConvCaps2D("a", 2, 1, 4, 3, 1, 1, 31),
		L2:       newConvCaps2D("b", 4, 1, 4, 3, 1, 1, 32),
		L3:       newConvCaps2D("c", 4, 1, 4, 3, 1, 1, 33),
		Skip:     newConvCaps2D("d", 4, 1, 4, 3, 1, 1, 34),
	}
	x := tensor.New(1, 2, 4, 4).FillNormal(tensor.NewRNG(35), 0, 1)
	out := cell.Forward(x)
	dir := tensor.New(out.Shape...).FillNormal(tensor.NewRNG(36), 0, 1)
	for _, p := range cell.Params() {
		p.ZeroGrad()
	}
	gx := cell.Backward(dir)
	fw := func() *tensor.Tensor { return cell.Forward(x) }
	numericCheck(t, "cell/x", fw, x, gx, dir, 1e-4)
	l1 := cell.L1.(*ConvCaps2D)
	numericCheck(t, "cell/L1.W", fw, l1.W.W, l1.W.G, dir, 1e-4)
}

func TestCellBranchMismatchPanics(t *testing.T) {
	cell := &CapsCell{
		CellName: "bad",
		L1:       newConvCaps2D("a", 2, 2, 4, 3, 2, 1, 41),
		L2:       newConvCaps2D("b", 8, 2, 4, 3, 1, 1, 42),
		L3:       newConvCaps2D("c", 8, 2, 4, 3, 1, 1, 43),
		Skip:     newConvCaps2D("d", 8, 2, 4, 3, 2, 1, 44), // extra stride
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cell.Forward(tensor.New(1, 2, 8, 8).FillNormal(tensor.NewRNG(45), 0, 1))
}

func TestParamMapAndNames(t *testing.T) {
	// Wrapped parameters carry the inference layers' Params() names and
	// are the very same tensors, so training updates the network in place.
	net := &caps.Network{Layers: []caps.Layer{
		newConv2D("Conv2D", 1, 2, 3, 1, 1, false, 51).L,
		newConvCaps3D("Caps3D", 2, 1, 2, 2, 3, 1, 1, 2, 52).L,
		newClassCaps("ClassCaps", 4, 2, 2, 4, 2, 53).L,
	}}
	m := Wrap(net)
	if m.Net != net {
		t.Fatal("Wrap must keep the network")
	}
	np := net.Params()
	want := []string{"Conv2D/W", "Conv2D/B", "Caps3D/W", "ClassCaps/W"}
	ps := m.Params()
	if len(ps) != len(want) || len(np) != len(want) {
		t.Fatalf("%d trainer params, %d network params, want %d", len(ps), len(np), len(want))
	}
	for i, p := range ps {
		if p.Name != want[i] || np[p.Name] != p.W {
			t.Fatalf("param %d = %q, want %q sharing the network's tensor", i, p.Name, want[i])
		}
	}
	if m.Layers[1].Name() != "Caps3D" || m.Layers[2].Name() != "ClassCaps" {
		t.Fatal("layer names wrong")
	}
}
