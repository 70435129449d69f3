package experiments

import (
	"fmt"
	"strings"

	"redcane/internal/approx"
	"redcane/internal/noise"
	"redcane/internal/tensor"
)

// Fig6Result reproduces Fig. 6: arithmetic-error distributions of the NGR
// and DM1 multiplier models for 1, 9 and 81 accumulated MACs, with their
// Gaussian interpolations.
type Fig6Result struct {
	Profiles []approx.ErrorProfile // 2 components × 3 chain lengths
}

// Fig6 characterizes the two paper-featured components.
func (r *Runner) Fig6() (*Fig6Result, error) {
	samples := 100000 // |I| = 10⁵ per scenario, as in the paper
	if r.Cfg.Quick {
		samples = 10000
	}
	var out Fig6Result
	for _, name := range []string{"mul8u_NGR", "mul8u_DM1"} {
		c, err := approx.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, chain := range []int{1, 9, 81} {
			p := approx.Characterize(c.Model, approx.Uniform{}, chain, samples, r.Cfg.Seed+3)
			p.Component = c.Name
			out.Profiles = append(out.Profiles, p)
		}
	}
	return &out, nil
}

// Render formats the Gaussian fits and one histogram per component.
func (f *Fig6Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 6 — arithmetic-error distributions and Gaussian fits\n")
	fmt.Fprintf(&b, "%-12s %6s %12s %12s %8s\n", "component", "MACs", "mean", "std", "KS")
	for _, p := range f.Profiles {
		fmt.Fprintf(&b, "%-12s %6d %12.2f %12.2f %8.3f\n",
			p.Component, p.ChainLen, p.Fit.Mean, p.Fit.Std, p.Fit.KS)
	}
	for _, p := range f.Profiles {
		if p.ChainLen != 9 {
			continue
		}
		fmt.Fprintf(&b, "\n%s, 9 MACs (error histogram):\n%s", p.Component, p.Hist.Render(40))
	}
	return b.String()
}

// captureGroup records (a sample of) the tensor values flowing through
// one operation group during forward passes.
type captureGroup struct {
	group  noise.Group
	values map[string][]float64
	cap    int
	stride int
}

func newCapture(g noise.Group, perLayerCap int) *captureGroup {
	return &captureGroup{group: g, values: map[string][]float64{}, cap: perLayerCap, stride: 7}
}

// Inject implements noise.Injector; it subsamples deterministically.
func (c *captureGroup) Inject(s noise.Site, x *tensor.Tensor) *tensor.Tensor {
	if s.Group != c.group {
		return x
	}
	vs := c.values[s.Layer]
	if len(vs) >= c.cap {
		return x
	}
	for i := 0; i < len(x.Data) && len(vs) < c.cap; i += c.stride {
		vs = append(vs, x.Data[i])
	}
	c.values[s.Layer] = vs
	return x
}

// Fig11Result reproduces Fig. 11: the distribution of (quantized) inputs
// to the convolutions of the trained DeepCaps on the CIFAR-like dataset.
type Fig11Result struct {
	// Overall is the 8-bit-code histogram over all conv inputs.
	Overall *tensor.Histogram
	// PerLayer holds code histograms for selected layers.
	PerLayer map[string]*tensor.Histogram
	// Pools are the quantized operand pools reused by Table IV's "real
	// distribution" column: activations (A) and weights (B).
	PoolA, PoolB []uint8
}

// Fig11 runs the trained DeepCaps on test images with a capture injector,
// then quantizes each layer's conv-input values to 8-bit codes.
func (r *Runner) Fig11() (*Fig11Result, error) {
	if r.fig11Memo != nil {
		return r.fig11Memo, nil
	}
	t, err := r.Trained(Benchmarks[0]) // deepcaps / cifar-like
	if err != nil {
		return nil, err
	}
	x, _ := capEval(t, r.evalCap())
	poolA, poolB, codes := operandPools(t, x, 40000)
	hist := func(cs []uint8) *tensor.Histogram {
		h := tensor.NewHistogram(0, 256, 64)
		for _, c := range cs {
			h.Observe(float64(c))
		}
		return h
	}
	perLayer := map[string]*tensor.Histogram{}
	for layer, cs := range codes {
		perLayer[layer] = hist(cs)
	}
	res := &Fig11Result{Overall: hist(poolA), PerLayer: perLayer, PoolA: poolA, PoolB: poolB}
	r.fig11Memo = res
	return res, nil
}

// Render formats the overall histogram and a focus on early caps layers.
func (f *Fig11Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 11 — distribution of conv-input samples (8-bit codes)\n")
	b.WriteString(f.Overall.Render(40))
	for _, layer := range []string{"Conv2D", "Caps2D1", "Caps2D5", "Caps2D9"} {
		h, ok := f.PerLayer[layer]
		if !ok {
			continue
		}
		peak, peakBin := 0, 0
		for i, c := range h.Counts {
			if c > peak {
				peak, peakBin = c, i
			}
		}
		fmt.Fprintf(&b, "layer %-8s: peak at code ≈ %.0f (%.1f%% of samples)\n",
			layer, h.BinCenter(peakBin), 100*h.Frequency(peakBin))
	}
	return b.String()
}

// Table4Row is one component row of Table IV.
type Table4Row struct {
	Name             string
	PowerUW, AreaUM2 float64
	PowerRed         float64
	// Modeled NM/NA use the uniform input distribution; Real use the
	// captured conv-input/weight pools.
	ModeledNA, ModeledNM float64
	RealNA, RealNM       float64
	// PaperModeledNM/NA are the paper's values for this component name.
	PaperModeledNM, PaperModeledNA float64
}

// Table4Result reproduces Table IV.
type Table4Result struct {
	Rows []Table4Row
}

// Table4 characterizes every library component under the modeled and the
// real input distributions.
func (r *Runner) Table4() (*Table4Result, error) {
	fig11, err := r.Fig11()
	if err != nil {
		return nil, err
	}
	real := approx.Empirical{Label: "deepcaps-cifar-conv-inputs", A: fig11.PoolA, B: fig11.PoolB}
	samples := 30000
	if r.Cfg.Quick {
		samples = 8000
	}
	var out Table4Result
	for _, c := range approx.Library() {
		modeled, measured := approx.CharacterizeComponent(c, real, 9, samples, r.Cfg.Seed+5)
		out.Rows = append(out.Rows, Table4Row{
			Name:    c.Name,
			PowerUW: c.PowerUW, AreaUM2: c.AreaUM2,
			PowerRed:  c.PowerReduction(),
			ModeledNA: modeled.NA, ModeledNM: modeled.NM,
			RealNA: measured.NA, RealNM: measured.NM,
			PaperModeledNM: c.PaperNM, PaperModeledNA: c.PaperNA,
		})
	}
	return &out, nil
}

// Render formats the component table.
func (t *Table4Result) Render() string {
	var b strings.Builder
	b.WriteString("Table IV — power, area and noise parameters of the multiplier library\n")
	fmt.Fprintf(&b, "%-12s %7s %7s | %9s %9s | %9s %9s | %9s\n",
		"multiplier", "µW", "µm²", "mod. NA", "mod. NM", "real NA", "real NM", "paper NM")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s %4.0f(-%2.0f%%) %6.0f | %+9.4f %9.4f | %+9.4f %9.4f | %9.4f\n",
			r.Name, r.PowerUW, 100*r.PowerRed, r.AreaUM2,
			r.ModeledNA, r.ModeledNM, r.RealNA, r.RealNM, r.PaperModeledNM)
	}
	return b.String()
}
