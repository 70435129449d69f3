package experiments

import (
	"fmt"
	"strings"

	"redcane/internal/approx"
	"redcane/internal/core"
	"redcane/internal/noise"
	"redcane/internal/plot"
)

// Table2Result reproduces Table II: clean classification accuracy of the
// five (architecture, dataset) benchmarks with accurate multipliers.
type Table2Result struct {
	Rows []Table2Row
}

// Table2Row is one benchmark's accuracy.
type Table2Row struct {
	Benchmark Benchmark
	Accuracy  float64 // ours, in percent
}

// Table2 trains (or loads) all five benchmarks and evaluates them.
func (r *Runner) Table2() (*Table2Result, error) {
	var out Table2Result
	for _, b := range Benchmarks {
		t, err := r.Trained(b)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Table2Row{Benchmark: b, Accuracy: 100 * t.TestAcc})
	}
	return &out, nil
}

// Render formats Table II with the paper's reference column.
func (t *Table2Result) Render() string {
	var b strings.Builder
	b.WriteString("Table II — clean accuracy with accurate multipliers\n")
	fmt.Fprintf(&b, "%-10s %-14s %10s %12s\n", "arch", "dataset", "ours [%]", "paper [%]")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%-10s %-14s %10.2f %12.2f\n",
			row.Benchmark.Arch, row.Benchmark.Dataset, row.Accuracy, row.Benchmark.PaperAccuracy)
	}
	return b.String()
}

// Table3Result reproduces Table III: the partition of CapsNet inference
// operations into groups, as extracted from the DeepCaps network.
type Table3Result struct {
	Groups []Table3Group
}

// Table3Group is one group row with its member sites.
type Table3Group struct {
	Group noise.Group
	Sites []noise.Site
}

// Table3 extracts the operation groups from the trained DeepCaps.
func (r *Runner) Table3() (*Table3Result, error) {
	t, err := r.Trained(Benchmarks[0])
	if err != nil {
		return nil, err
	}
	a := &core.Analyzer{Net: t.Net, Data: t.Data, Obs: r.obs()}
	byGroup := a.ExtractGroups()
	var out Table3Result
	for _, g := range noise.Groups() {
		out.Groups = append(out.Groups, Table3Group{Group: g, Sites: byGroup[g]})
	}
	return &out, nil
}

// Render formats the group table.
func (t *Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table III — grouping of the CapsNet inference operations\n")
	fmt.Fprintf(&b, "%-3s %-14s %-60s %5s\n", "#", "group", "description", "sites")
	for i, g := range t.Groups {
		fmt.Fprintf(&b, "%-3d %-14s %-60s %5d\n", i+1, g.Group, g.Group.Description(), len(g.Sites))
	}
	return b.String()
}

// GroupSweepResult holds one benchmark's group-wise resilience curves
// (Fig. 9 for DeepCaps/CIFAR, Fig. 12 for the other four benchmarks).
type GroupSweepResult struct {
	Benchmark Benchmark
	Clean     float64
	Groups    []core.GroupResult
}

// Overrides optionally replaces the analysis knobs of a job-shaped sweep
// entry point. The zero value reproduces the paper defaults, so results
// submitted without overrides are byte-identical to the corresponding CLI
// experiment (same seed, same options fingerprint).
type Overrides struct {
	// NMSweep replaces the noise-magnitude grid (nil keeps
	// core.PaperNMSweep). The grid is normalized by Options.WithDefaults.
	NMSweep []float64
	// NA replaces the noise average (paper default 0).
	NA float64
}

// sweep is the body the group-wise entry points share: clean accuracy,
// the group sweep (Steps 2–3) and, with layers set, the layer sweep of
// the non-resilient groups (Steps 4–5).
func (r *Runner) sweep(b Benchmark, seedOffset uint64, ov Overrides, adjust func(*core.Options), layers bool) (*GroupSweepResult, []core.LayerResult, error) {
	a, err := r.analyzer(b, seedOffset, ov, adjust)
	if err != nil {
		return nil, nil, err
	}
	ctx := r.ctx()
	clean, err := a.CleanAccuracyCtx(ctx)
	if err != nil {
		return nil, nil, err
	}
	groups, err := a.AnalyzeGroups(ctx, clean)
	if err != nil {
		return nil, nil, err
	}
	res := &GroupSweepResult{Benchmark: b, Clean: clean, Groups: groups}
	if !layers {
		return res, nil, nil
	}
	ls, err := a.AnalyzeLayers(ctx, groups, clean)
	if err != nil {
		return nil, nil, err
	}
	return res, ls, nil
}

// GroupSweep runs methodology Steps 1–3 (the group-wise resilience
// analysis of Fig. 9/12) on one benchmark. It is the job-shaped entry
// point shared by the CLI experiments and the analysis service: it
// returns the structured result (Render/WriteCSV produce the CLI's
// artifacts) instead of printing.
func (r *Runner) GroupSweep(b Benchmark, ov Overrides) (*GroupSweepResult, error) {
	res, _, err := r.sweep(b, 21, ov, nil, false)
	return res, err
}

// Fig9 is the group-wise resilience of DeepCaps on the CIFAR-like
// dataset.
func (r *Runner) Fig9() (*GroupSweepResult, error) {
	return r.GroupSweep(Benchmarks[0], Overrides{})
}

// Fig12 is the group-wise resilience of the other four benchmarks.
func (r *Runner) Fig12() ([]*GroupSweepResult, error) {
	var out []*GroupSweepResult
	for _, b := range Benchmarks[1:] {
		res, err := r.GroupSweep(b, Overrides{})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// Render formats the accuracy-drop curves as a table plus an ASCII chart
// (the text analogue of the paper's Fig. 9/12 panels).
func (g *GroupSweepResult) Render() string {
	title := fmt.Sprintf("group-wise resilience — %s on %s (clean %.2f%%)\n",
		g.Benchmark.Arch, g.Benchmark.Dataset, 100*g.Clean)
	return g.render(title, "NM", g.Chart())
}

// render formats the sweep under a title and the grid axis label: one
// row of drops per group, then the chart.
func (g *GroupSweepResult) render(title, axis string, chart *plot.Chart) string {
	var b strings.Builder
	b.WriteString(title)
	fmt.Fprintf(&b, "%-14s", axis)
	for _, p := range g.Groups[0].Points {
		fmt.Fprintf(&b, "%8.3g", p.NM)
	}
	b.WriteString("\n")
	for _, gr := range g.Groups {
		fmt.Fprintf(&b, "%-14s", gr.Group)
		for _, p := range gr.Points {
			fmt.Fprintf(&b, "%+8.1f", 100*p.Drop)
		}
		status := ""
		if gr.Resilient {
			status = "  [RESILIENT]"
		}
		fmt.Fprintf(&b, "  (accuracy drop %%)%s\n", status)
	}
	b.WriteString("\n")
	b.WriteString(chart.Render())
	return b.String()
}

// Chart builds the accuracy-drop line chart of the sweep.
func (g *GroupSweepResult) Chart() *plot.Chart {
	return g.chart("accuracy drop [%] vs noise magnitude", "NM")
}

// chart builds the accuracy-drop line chart, one series per group, over
// the grid axis named xAxis.
func (g *GroupSweepResult) chart(title, xAxis string) *plot.Chart {
	c := &plot.Chart{Title: title, XLabel: xAxis + " (descending)", Height: 12}
	for _, p := range g.Groups[0].Points {
		c.XTicks = append(c.XTicks, fmt.Sprintf("%.3g", p.NM))
	}
	c.Width = 6 * len(c.XTicks)
	for _, gr := range g.Groups {
		s := plot.Series{Name: gr.Group.String()}
		for _, p := range gr.Points {
			s.Values = append(s.Values, 100*p.Drop)
		}
		c.Series = append(c.Series, s)
	}
	return c
}

// Fig10Result is the layer-wise resilience of the non-resilient groups
// (DeepCaps on the CIFAR-like dataset).
type Fig10Result struct {
	Benchmark Benchmark
	Clean     float64
	Layers    []core.LayerResult
}

// Fig10 runs methodology Steps 4–5 on the Fig. 9 outcome.
func (r *Runner) Fig10() (*Fig10Result, error) {
	return r.LayerSweep(Benchmarks[0], Overrides{})
}

// LayerSweep runs methodology Steps 1–5 (group-wise plus the layer-wise
// resilience analysis of the non-resilient groups, Fig. 10) on one
// benchmark — the job-shaped generalization of Fig10.
func (r *Runner) LayerSweep(b Benchmark, ov Overrides) (*Fig10Result, error) {
	g, layers, err := r.sweep(b, 22, ov, nil, true)
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Benchmark: b, Clean: g.Clean, Layers: layers}, nil
}

// Render formats the per-layer tolerated noise magnitudes.
func (f *Fig10Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10 — layer-wise resilience of non-resilient groups (%s on %s)\n",
		f.Benchmark.Arch, f.Benchmark.Dataset)
	fmt.Fprintf(&b, "%-10s %-14s %12s %s\n", "layer", "group", "tolerated NM", "")
	for _, l := range f.Layers {
		mark := ""
		if l.Resilient {
			mark = "(resilient)"
		}
		fmt.Fprintf(&b, "%-10s %-14s %12.3f %s\n", l.Layer, l.Group, l.ToleratedNM, mark)
	}
	return b.String()
}

// DesignResult wraps the full 6-step methodology outcome for one
// benchmark (the paper's final output: an approximate CapsNet design).
type DesignResult struct {
	Report *core.Report
	// profiles are kept for RefineDesign.
	profiles []core.ComponentProfile
}

// Design runs the complete ReD-CaNe methodology on one benchmark using
// the real conv-input distribution for component characterization.
func (r *Runner) Design(b Benchmark) (*DesignResult, error) {
	a, err := r.analyzer(b, 23, Overrides{}, nil)
	if err != nil {
		return nil, err
	}
	fig11, err := r.Fig11()
	if err != nil {
		return nil, err
	}
	samples := 20000
	if r.Cfg.Quick {
		samples = 5000
	}
	// Characterize the library at every standard accumulation depth so
	// Step 6 matches each site against the profile measured at the chain
	// length closest to its layer's real MAC fan-in (Fig. 6).
	profiles := core.ProfileLibraryDepths(
		approx.EmpiricalDist(fig11.PoolA, fig11.PoolB), core.LibraryChainLens, samples, r.Cfg.Seed+9)
	report, err := a.RunMethodology(r.ctx(), profiles)
	if err != nil {
		return nil, err
	}
	return &DesignResult{Report: report, profiles: profiles}, nil
}

// Render formats the design report.
func (d *DesignResult) Render() string { return core.FormatReport(d.Report) }

// RefineDesign applies the validate-and-repair extension (core.Refine) to
// an existing design: while the composed approximate CapsNet exceeds the
// tolerable accuracy drop, the noisiest component assignment is upgraded.
func (r *Runner) RefineDesign(b Benchmark, d *DesignResult) (core.RefineResult, error) {
	a, err := r.analyzer(b, 24, Overrides{}, nil)
	if err != nil {
		return core.RefineResult{}, err
	}
	return a.Refine(r.ctx(), d.Report.Choices, d.profiles, d.Report.CleanAccuracy, r.threshold(), 50)
}
