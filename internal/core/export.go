package core

import (
	"encoding/json"
	"fmt"
	"io"
)

// exportedReport is the stable JSON schema of a ReD-CaNe report, for
// downstream tooling (e.g. an accelerator generator consuming the
// per-operation component assignment).
type exportedReport struct {
	Network           string           `json:"network"`
	Dataset           string           `json:"dataset"`
	CleanAccuracy     float64          `json:"clean_accuracy"`
	ValidatedAccuracy float64          `json:"validated_accuracy"`
	MulEnergySaving   float64          `json:"mul_energy_saving"`
	Groups            []exportedScope  `json:"groups"`
	Layers            []exportedScope  `json:"layers,omitempty"`
	Choices           []exportedChoice `json:"choices"`
}

// exportedScope is one group (no layer) or one layer of the report.
type exportedScope struct {
	Layer       string  `json:"layer,omitempty"`
	Group       string  `json:"group"`
	ToleratedNM float64 `json:"tolerated_nm"`
	Resilient   bool    `json:"resilient"`
}

type exportedChoice struct {
	Layer       string  `json:"layer"`
	Group       string  `json:"group"`
	Component   string  `json:"component"`
	ComponentNM float64 `json:"component_nm"`
	BudgetNM    float64 `json:"budget_nm"`
	PowerUW     float64 `json:"power_uw"`
	AreaUM2     float64 `json:"area_um2"`
}

// exportReport builds the stable JSON form of a report.
func exportReport(r *Report) exportedReport {
	e := exportedReport{
		Network:           r.Network,
		Dataset:           r.Dataset,
		CleanAccuracy:     r.CleanAccuracy,
		ValidatedAccuracy: r.ValidatedAccuracy,
		MulEnergySaving:   r.MulEnergySaving,
	}
	for _, g := range r.Groups {
		e.Groups = append(e.Groups, exportedScope{
			Group: g.Group.String(), ToleratedNM: g.ToleratedNM, Resilient: g.Resilient,
		})
	}
	for _, l := range r.Layers {
		e.Layers = append(e.Layers, exportedScope{
			Layer: l.Layer, Group: l.Group.String(),
			ToleratedNM: l.ToleratedNM, Resilient: l.Resilient,
		})
	}
	for _, c := range r.Choices {
		e.Choices = append(e.Choices, exportedChoice{
			Layer: c.Site.Layer, Group: c.Site.Group.String(),
			Component: c.Component.Name, ComponentNM: c.ComponentNM,
			BudgetNM: c.BudgetNM,
			PowerUW:  c.Component.PowerUW, AreaUM2: c.Component.AreaUM2,
		})
	}
	return e
}

// WriteJSON serializes the report to w (indented, stable field order).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(exportReport(r)); err != nil {
		return fmt.Errorf("core: export report: %w", err)
	}
	return nil
}

// exportedRefined extends the report schema with the refinement trace.
// The embedded report carries the POST-refinement choices and validated
// accuracy; the original pre-refinement selection is recoverable from
// the repair steps.
type exportedRefined struct {
	exportedReport
	Refinement exportedRefinement `json:"refinement"`
}

type exportedRefinement struct {
	Steps    []exportedRefineStep `json:"steps"`
	Accuracy float64              `json:"accuracy"`
	Met      bool                 `json:"met"`
}

type exportedRefineStep struct {
	Round    int     `json:"round"`
	Layer    string  `json:"layer"`
	Group    string  `json:"group"`
	From     string  `json:"from"`
	To       string  `json:"to"`
	Accuracy float64 `json:"accuracy"`
}

// WriteRefinedJSON serializes the refined design: the base report with
// its choices and validated accuracy replaced by the refinement outcome,
// plus the repair trace under "refinement".
func WriteRefinedJSON(w io.Writer, base *Report, ref RefineResult) error {
	refined := *base
	refined.Choices = ref.Choices
	refined.ValidatedAccuracy = ref.Accuracy
	out := exportedRefined{exportedReport: exportReport(&refined)}
	out.Refinement.Accuracy = ref.Accuracy
	out.Refinement.Met = ref.Met
	out.Refinement.Steps = []exportedRefineStep{} // [] rather than null when no repairs
	for _, s := range ref.Steps {
		out.Refinement.Steps = append(out.Refinement.Steps, exportedRefineStep{
			Round: s.Round, Layer: s.Site.Layer, Group: s.Site.Group.String(),
			From: s.From, To: s.To, Accuracy: s.Accuracy,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("core: export refined report: %w", err)
	}
	return nil
}
