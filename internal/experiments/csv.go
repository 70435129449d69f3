package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
)

// CSV writers for the sweep-style results, so the figures can be re-drawn
// with external plotting tools. One row per measurement; headers match
// the paper's axis labels.

// WriteCSV emits the group-wise sweep as
// (arch, dataset, group, nm, accuracy, drop).
func (g *GroupSweepResult) WriteCSV(w io.Writer) error {
	return g.writeCSV(w, []string{"arch", "dataset", "group", "nm", "accuracy", "drop"})
}

// WriteCSV emits the fault campaign as
// (arch, dataset, kind, group, severity, accuracy, drop).
func (f *FaultSweepResult) WriteCSV(w io.Writer) error {
	return f.writeCSV(w, []string{"arch", "dataset", "kind", "group", "severity", "accuracy", "drop"},
		f.Spec.String())
}

// writeCSV emits one row per (group, grid point): arch and dataset, the
// extra columns, then group, grid value, accuracy and drop.
func (g *GroupSweepResult) writeCSV(w io.Writer, header []string, extra ...string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, gr := range g.Groups {
		for _, p := range gr.Points {
			rec := append([]string{g.Benchmark.Arch, g.Benchmark.Dataset}, extra...)
			rec = append(rec, gr.Group.String(),
				fmt.Sprintf("%g", p.NM),
				fmt.Sprintf("%g", p.Accuracy),
				fmt.Sprintf("%g", p.Drop))
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits the layer-wise sweep as
// (layer, group, nm, accuracy, drop, tolerated_nm).
func (f *Fig10Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"layer", "group", "nm", "accuracy", "drop", "tolerated_nm"}); err != nil {
		return err
	}
	for _, l := range f.Layers {
		for _, p := range l.Points {
			rec := []string{
				l.Layer, l.Group.String(),
				fmt.Sprintf("%g", p.NM),
				fmt.Sprintf("%g", p.Accuracy),
				fmt.Sprintf("%g", p.Drop),
				fmt.Sprintf("%g", l.ToleratedNM),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits Table IV as one row per component.
func (t *Table4Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"component", "power_uw", "area_um2",
		"modeled_na", "modeled_nm", "real_na", "real_nm",
		"paper_modeled_nm", "paper_modeled_na",
	}); err != nil {
		return err
	}
	for _, r := range t.Rows {
		rec := []string{
			r.Name,
			fmt.Sprintf("%g", r.PowerUW), fmt.Sprintf("%g", r.AreaUM2),
			fmt.Sprintf("%g", r.ModeledNA), fmt.Sprintf("%g", r.ModeledNM),
			fmt.Sprintf("%g", r.RealNA), fmt.Sprintf("%g", r.RealNM),
			fmt.Sprintf("%g", r.PaperModeledNM), fmt.Sprintf("%g", r.PaperModeledNA),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits the error-model validation as one row per scope:
// (scope, name, component, sites, mac_sites, predicted_acc, measured_acc,
// gap, realizable).
func (v *ValidateResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"scope", "name", "component", "sites", "mac_sites",
		"predicted_acc", "measured_acc", "gap", "realizable",
	}); err != nil {
		return err
	}
	for _, r := range v.Rows {
		rec := []string{
			r.Scope, r.Name, r.Component,
			fmt.Sprintf("%d", r.Sites), fmt.Sprintf("%d", r.MACSites),
			fmt.Sprintf("%g", r.Predicted), fmt.Sprintf("%g", r.Measured),
			fmt.Sprintf("%g", r.Gap()), fmt.Sprintf("%v", r.Realizable),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits the Fig. 6 error profiles as
// (component, chain_len, mean, std, ks, nm, na).
func (f *Fig6Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"component", "chain_len", "mean", "std", "ks", "nm", "na"}); err != nil {
		return err
	}
	for _, p := range f.Profiles {
		rec := []string{
			p.Component, fmt.Sprintf("%d", p.ChainLen),
			fmt.Sprintf("%g", p.Fit.Mean), fmt.Sprintf("%g", p.Fit.Std),
			fmt.Sprintf("%g", p.Fit.KS),
			fmt.Sprintf("%g", p.NM), fmt.Sprintf("%g", p.NA),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
