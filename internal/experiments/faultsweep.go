package experiments

import (
	"fmt"

	"redcane/internal/core"
	"redcane/internal/noise"
	"redcane/internal/plot"
)

// This file is the fault-campaign experiment: the group-wise resilience
// analysis of the methodology driven by a fault injector (bit flips,
// stuck-at cells) instead of the paper's Gaussian noise model. The sweep
// grid's severity axis is reinterpreted per kind — flip probability or
// stuck fraction — and everything else (the sweep body, counter seeding,
// prefix caching, checkpoint resume, fleet distribution, rendering) is
// the group sweep's.

// FaultSweepResult holds one benchmark's group-wise fault campaign: the
// group sweep's result under the injector Spec.
type FaultSweepResult struct {
	GroupSweepResult
	Spec noise.Spec
}

// FaultSweep runs the group-wise resilience analysis under the given
// fault model. A zero spec injects the default Gaussian model on the
// fault severity grid; ov.NMSweep replaces that grid (it is the severity
// grid: flip probability for bit-flip, stuck fraction for stuck-at).
func (r *Runner) FaultSweep(b Benchmark, spec noise.Spec, ov Overrides) (*FaultSweepResult, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	g, _, err := r.sweep(b, 26, ov, func(o *core.Options) {
		o.NMSweep, o.Noise = core.DefaultFaultSweep, spec
	}, false)
	if err != nil {
		return nil, err
	}
	return &FaultSweepResult{GroupSweepResult: *g, Spec: spec}, nil
}

// Render formats the fault campaign's accuracy-drop curves, labeling the
// severity axis by the injector kind.
func (f *FaultSweepResult) Render() string {
	title := fmt.Sprintf("fault campaign [%s] — %s on %s (clean %.2f%%)\n",
		f.Spec, f.Benchmark.Arch, f.Benchmark.Dataset, 100*f.Clean)
	return f.render(title, f.Spec.SeverityLabel(), f.Chart())
}

// Chart builds the accuracy-drop line chart of the campaign.
func (f *FaultSweepResult) Chart() *plot.Chart {
	label := f.Spec.SeverityLabel()
	return f.chart(fmt.Sprintf("accuracy drop [%%] vs %s (%s)", label, f.Spec), label)
}
