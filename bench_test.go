// Benchmarks regenerating every table and figure of the ReD-CaNe paper
// (one benchmark per artifact, via the experiments harness in quick mode)
// plus microbenchmarks of the computational kernels. Trained weights are
// cached under the OS temp dir so repeated bench runs skip training.
//
//	go test -bench=. -benchmem
package redcane

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"redcane/internal/approx"
	"redcane/internal/axe"
	"redcane/internal/caps"
	"redcane/internal/core"
	"redcane/internal/datasets"
	"redcane/internal/experiments"
	"redcane/internal/models"
	"redcane/internal/noise"
	"redcane/internal/tensor"
	"redcane/internal/train"
)

var (
	benchOnce   sync.Once
	benchRunner *experiments.Runner
)

// runner returns the shared quick-mode experiment runner.
func runner(b *testing.B) *experiments.Runner {
	b.Helper()
	benchOnce.Do(func() {
		dir := filepath.Join(os.TempDir(), "redcane-bench-cache")
		benchRunner = experiments.NewRunner(experiments.Config{Dir: dir, Quick: true, Seed: 42})
	})
	return benchRunner
}

// ---- Paper artifacts ------------------------------------------------

func BenchmarkTable1OpCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Ours.Mul/1e9, "Gmul")
	}
}

func BenchmarkFig4EnergyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Ours.MulShare, "mul%")
	}
}

func BenchmarkFig5Scenarios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Results {
			if s.Scenario.Name == "XM" {
				b.ReportMetric(-100*s.SavingVsAcc, "XMsaving%")
			}
		}
	}
}

func BenchmarkFig6ErrorProfiles(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Profiles[2].Fit.KS, "KS81")
	}
}

func BenchmarkTable2CleanAccuracy(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Table2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Accuracy, "cifar%")
	}
}

func BenchmarkTable3GroupExtraction(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Table3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Groups[0].Sites)), "MACsites")
	}
}

func BenchmarkFig9Groupwise(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		for _, g := range res.Groups {
			if g.Group == noise.Softmax {
				b.ReportMetric(g.ToleratedNM, "softmaxTolNM")
			}
		}
	}
}

func BenchmarkFig10Layerwise(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Layers)), "layerSweeps")
	}
}

func BenchmarkFig11InputDistribution(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.PoolA)), "operands")
	}
}

func BenchmarkTable4ComponentNM(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Table4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[len(res.Rows)-1].RealNM, "QKXrealNM")
	}
}

func BenchmarkFig12Benchmarks(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res)), "benchmarks")
	}
}

func BenchmarkAccelSystemModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Accel()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Rows[0].SystemSaving, "NGRsys%")
	}
}

// ---- Ablations -------------------------------------------------------

func BenchmarkAblationRoutingIterations(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.AblationRoutingIterations()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.DropByIters[3], "drop3iters%")
	}
}

func BenchmarkAblationNoiseVsLUT(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.AblationNoiseVsLUT()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Rows[0].LUTAccuracy, "NGRlut%")
	}
}

func BenchmarkAblationNoiseAverage(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationNoiseAverage(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFaultTypes(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationFaultTypes(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSelectionStrategy(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.AblationSelectionStrategy(experiments.Benchmarks[4])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.ReDCaNe.MulSaving, "redcaneSaving%")
	}
}

func BenchmarkAblationRangeEstimator(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationRangeEstimator(experiments.Benchmarks[4]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStabilityAcrossSeeds(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Stability(experiments.Benchmarks[4], 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.OrderingHolds), "orderingHolds")
	}
}

func BenchmarkDesignEndToEnd(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Design(experiments.Benchmarks[4])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Report.MulEnergySaving, "mulSaving%")
	}
}

// ---- Kernel microbenchmarks -----------------------------------------

func BenchmarkConv2DKernel(b *testing.B) {
	x := tensor.New(8, 16, 16, 16).FillNormal(tensor.NewRNG(1), 0, 1)
	w := tensor.New(32, 16, 3, 3).FillNormal(tensor.NewRNG(2), 0, 1)
	bias := tensor.New(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2D(x, w, bias, 1, 1)
	}
}

// BenchmarkQuantConv2DExact measures the bit-exact quantized conv kernel
// (code-domain integer GEMM, exact multiplier) on the same shape as
// BenchmarkConv2DKernel.
func BenchmarkQuantConv2DExact(b *testing.B) {
	x := tensor.New(8, 16, 16, 16).FillNormal(tensor.NewRNG(1), 0, 1)
	w := tensor.New(32, 16, 3, 3).FillNormal(tensor.NewRNG(2), 0, 1)
	bias := tensor.New(32)
	be := axe.QuantExact{Bits: 8}
	s := tensor.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Release(be.Conv2D("L", x, w, bias, 1, 1, s))
	}
}

// BenchmarkQuantConv2DLUT is the approximate-multiplier variant: the same
// integer GEMM with every product through a compiled 8-bit LUT. The LUT
// is compiled before the timer starts.
func BenchmarkQuantConv2DLUT(b *testing.B) {
	x := tensor.New(8, 16, 16, 16).FillNormal(tensor.NewRNG(1), 0, 1)
	w := tensor.New(32, 16, 3, 3).FillNormal(tensor.NewRNG(2), 0, 1)
	bias := tensor.New(32)
	be := quantApproxBench(b)
	s := tensor.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Release(be.Conv2D("L", x, w, bias, 1, 1, s))
	}
}

// BenchmarkQuantCapsVotes measures the quantized fully-connected capsule
// vote kernel, through a compiled LUT, on the
// BenchmarkDynamicRoutingKernel layer shape.
func BenchmarkQuantCapsVotes(b *testing.B) {
	u := tensor.New(8, 64, 8).FillNormal(tensor.NewRNG(4), 0, 0.3)
	w := tensor.New(64, 10, 16, 8).FillGlorot(tensor.NewRNG(3), 8, 16)
	be := quantApproxBench(b)
	s := tensor.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Release(be.CapsVotes("L", u, w, s))
	}
}

// quantApproxBench is the approximate backend the LUT kernel benchmarks
// run: layer "L" multiplies through a BrokenCarry LUT.
func quantApproxBench(b *testing.B) *axe.QuantApprox {
	be, err := axe.NewQuantApprox(8, map[string]approx.Multiplier{
		"L": approx.BrokenCarry{Depth: 6, Compensate: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	return be
}

func BenchmarkDynamicRoutingKernel(b *testing.B) {
	l := &caps.ClassCaps{
		LayerName: "CC", InCaps: 64, InDim: 8, OutCaps: 10, OutDim: 16,
		W:                 tensor.New(64, 10, 16, 8).FillGlorot(tensor.NewRNG(3), 8, 16),
		RoutingIterations: 3,
	}
	x := tensor.New(8, 64, 8).FillNormal(tensor.NewRNG(4), 0, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x, noise.None{})
	}
}

func BenchmarkNoiseInjection(b *testing.B) {
	x := tensor.New(64*1024).FillNormal(tensor.NewRNG(5), 0, 1)
	inj := noise.NewGaussian(0.01, 0, noise.All(), 6)
	site := noise.Site{Layer: "L", Group: noise.MACOutputs}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.Inject(site, x)
	}
}

func BenchmarkLUTMultiply(b *testing.B) {
	lut := approx.CompileLUT(approx.BrokenCarry{Depth: 6, Compensate: true})
	b.ResetTimer()
	var sink uint16
	for i := 0; i < b.N; i++ {
		sink ^= lut.Mul(uint8(i), uint8(i>>8))
	}
	_ = sink
}

func BenchmarkCharacterize81MAC(b *testing.B) {
	c, err := approx.ByName("mul8u_NGR")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		approx.Characterize(c.Model, approx.Uniform{}, 81, 10000, 7)
	}
}

func BenchmarkTrainEpochCapsNet(b *testing.B) {
	ds := datasets.MNISTLike(128, 32, 42)
	spec := models.CapsNet([]int{1, 20, 20}, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := models.BuildTrainer(spec, 7)
		if err != nil {
			b.Fatal(err)
		}
		calib := tensor.NewFrom(ds.TrainX.Data[:16*400], 16, 1, 20, 20)
		train.LSUVInit(m, calib, 0.5)
		b.StartTimer()
		train.Fit(m, ds, train.Config{Epochs: 1, BatchSize: 32, LR: 1e-3, Seed: 1})
	}
}

func BenchmarkInferenceDeepCaps(b *testing.B) {
	net, err := models.BuildInference(models.DeepCaps([]int{3, 16, 16}, 10), 7)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(8, 3, 16, 16).FillUniform(tensor.NewRNG(8), 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, noise.None{})
	}
}

// BenchmarkInferenceApproxSoftmax is BenchmarkInferenceDeepCaps with the
// approximate nonlinearities (base-2 softmax, Newton-free squash)
// threaded through the seam: the behavioral models cost about the same
// in float as the exact kernels, so a large gap here means the
// decorator path regressed.
func BenchmarkInferenceApproxSoftmax(b *testing.B) {
	net, err := models.BuildInference(models.DeepCaps([]int{3, 16, 16}, 10), 7)
	if err != nil {
		b.Fatal(err)
	}
	nl, err := core.ResolveNonlinearity("base2", "sqnorm")
	if err != nil {
		b.Fatal(err)
	}
	be := caps.WithNonlinearity(caps.Float{}, nl)
	x := tensor.New(8, 3, 16, 16).FillUniform(tensor.NewRNG(8), 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardExec(x, noise.None{}, be)
	}
}

// ---- Sweep engine ----------------------------------------------------

// sweepBenchAnalyzer builds the analyzer fixture shared by the
// sweep-engine benchmarks: a small untrained CapsNet (analysis cost does
// not depend on weight quality) over one evaluation window.
func sweepBenchAnalyzer(b *testing.B) (*core.Analyzer, float64) {
	b.Helper()
	ds := datasets.MNISTLike(32, 64, 42)
	net, err := models.BuildInference(models.CapsNet([]int{1, 20, 20}, 10), 7)
	if err != nil {
		b.Fatal(err)
	}
	a := &core.Analyzer{Net: net, Data: ds, Opts: core.Options{
		NMSweep: []float64{0.5, 0.05, 0}, Trials: 1, MaxEval: 32, Seed: 5,
	}.WithDefaults()}
	return a, a.CleanAccuracy()
}

// naiveSweep replays the pre-engine sweep strategy — one full forward
// pass per (point, trial), no prefix caching, no scratch reuse — as the
// baseline for the engine benchmarks below.
func naiveSweep(b *testing.B, a *core.Analyzer, filter noise.Filter) {
	b.Helper()
	o := a.Opts
	x, y := a.Data.TestX, a.Data.TestY
	if o.MaxEval > 0 && o.MaxEval < x.Shape[0] {
		sample := x.Len() / x.Shape[0]
		x = tensor.NewFrom(x.Data[:o.MaxEval*sample], append([]int{o.MaxEval}, x.Shape[1:]...)...)
		y = y[:o.MaxEval]
	}
	for pi, nm := range o.NMSweep {
		if nm == 0 {
			continue
		}
		for trial := 0; trial < o.Trials; trial++ {
			inj := noise.NewGaussian(nm, o.NA, filter, o.Seed+uint64(pi)*1000+uint64(trial))
			caps.AccuracyWorkers(a.Net, x, y, inj, o.Batch, 1)
		}
	}
}

// BenchmarkLayerSweepClassCaps measures a layer-wise sweep targeting the
// final routing layer: the injection frontier sits at ClassCaps, so the
// engine replays cached conv/primary-caps activations and runs only the
// routing suffix per sweep point.
func BenchmarkLayerSweepClassCaps(b *testing.B) {
	a, clean := sweepBenchAnalyzer(b)
	filter := noise.ForLayerGroup("ClassCaps", noise.MACOutputs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Sweep(context.Background(), filter, clean, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLayerSweepClassCapsNaive is the full-forward baseline for
// BenchmarkLayerSweepClassCaps.
func BenchmarkLayerSweepClassCapsNaive(b *testing.B) {
	a, _ := sweepBenchAnalyzer(b)
	filter := noise.ForLayerGroup("ClassCaps", noise.MACOutputs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveSweep(b, a, filter)
	}
}

// BenchmarkGroupSweepEngine measures the four group-wise sweeps of
// methodology Step 2 under the engine: the MAC-output and activation
// groups front at layer 0 (no prefix to skip), while the softmax and
// logits-update groups share a cached routing-layer frontier.
func BenchmarkGroupSweepEngine(b *testing.B) {
	a, clean := sweepBenchAnalyzer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for gi, g := range noise.Groups() {
			if _, err := a.Sweep(context.Background(), noise.ForGroup(g), clean, uint64(gi)*100000); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGroupSweepNaive is the full-forward baseline for
// BenchmarkGroupSweepEngine.
func BenchmarkGroupSweepNaive(b *testing.B) {
	a, _ := sweepBenchAnalyzer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range noise.Groups() {
			naiveSweep(b, a, noise.ForGroup(g))
		}
	}
}

func BenchmarkMethodologyGroupSweepSmall(b *testing.B) {
	// End-to-end Steps 1–3 on an untrained tiny CapsNet: measures the
	// analysis overhead itself, independent of training.
	ds := datasets.MNISTLike(32, 64, 42)
	net, err := models.BuildInference(models.CapsNet([]int{1, 20, 20}, 10), 7)
	if err != nil {
		b.Fatal(err)
	}
	a := &core.Analyzer{Net: net, Data: ds, Opts: core.Options{
		NMSweep: []float64{0.5, 0.05, 0}, Trials: 1, MaxEval: 32, Seed: 5,
	}.WithDefaults()}
	clean := a.CleanAccuracy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.AnalyzeGroups(context.Background(), clean); err != nil {
			b.Fatal(err)
		}
	}
}
