package core

import (
	"context"

	"redcane/internal/approx"
	"redcane/internal/axe"
	"redcane/internal/caps"
	"redcane/internal/noise"
	"redcane/internal/obs"
)

// This file closes the methodology's model-vs-reality loop: a Step 6
// design (a []Choice) compiles into an execution backend that runs the
// chosen multipliers bit-accurately, and EvalBackend measures it as a
// single-evaluation run of the window executor the noise sweeps use
// (runWindows) — workers, prefix caching over the exact prefix before the
// first approximate site, checkpoint/resume, probes and telemetry.

// MACAssignments extracts a design's per-layer multiplier assignments:
// the MAC-output choices, which are the only Table III group a
// multiplier substitution physically realizes (softmax, activations and
// logits-update approximations live in other datapath units). Exact
// assignments are kept — the backend drops them itself — so the map's
// keys cover every MAC layer of the design.
func MACAssignments(choices []Choice) map[string]approx.Multiplier {
	out := map[string]approx.Multiplier{}
	for _, c := range choices {
		if c.Site.Group != noise.MACOutputs {
			continue
		}
		out[c.Site.Layer] = c.Component.Model
	}
	return out
}

// DesignBackend compiles a selected design into a bit-accurate execution
// backend: b-bit quantized MACs with each layer's chosen approximate
// multiplier (exact choices and non-MAC sites run the exact quantized
// path).
func DesignBackend(choices []Choice, bits uint) (caps.Backend, error) {
	return axe.NewQuantApprox(bits, MACAssignments(choices))
}

// EvalBackend measures test accuracy under the given execution backend
// as a noiseless, single-evaluation run of the window executor: batches
// run as independent jobs over the worker pool (bit-identical for any
// worker count), the exact prefix before the backend's first approximate
// layer is computed once per window and replayed, cancellation stops at a
// window boundary, a worker panic surfaces as a *JobPanicError with Point
// -1, and with a non-nil a.Checkpoint the correct-count persists under
// the given section key so an interrupted evaluation resumes where it
// left off. Distinct backends must use distinct section keys.
func (a *Analyzer) EvalBackend(ctx context.Context, be caps.Backend, section string) (float64, error) {
	if be == nil {
		be = caps.Float{}
	}
	a.Opts = a.Opts.WithDefaults()
	// The analyzer's softmax/squash variants apply to backend evaluations
	// too, so a design measured under an approximate nonlinearity is
	// compared against sweeps run under the same one.
	be, err := a.execBackend(be)
	if err != nil {
		return 0, err
	}
	n, nb := a.evalSize()
	if n == 0 {
		return 0, nil
	}
	r := windowRun{
		key: section, evals: []evalIdx{{-1, -1}}, n: n, nb: nb,
		frontier: a.Net.BackendFrontier(be), be: be,
		inject: func(evalIdx, int) noise.Injector { return noise.None{} },
	}
	sp := a.Obs.StartSpan("backend.eval",
		obs.F("backend", be.Name()), obs.F("frontier", r.frontier), obs.F("section", section))
	defer sp.End()

	if a.Probes != nil {
		// Numeric-health probes (opt-in, inert): the reference for SQNR is
		// the backend's own exact baseline (caps.Baseliner) — e.g.
		// QuantExact at the same wordlength for a QuantApprox design. A
		// backend that is its own baseline skips the reference pass.
		// Probing bypasses the prefix replay (jobs run the full forward,
		// which the replay guarantee makes bit-identical) so every layer's
		// MAC outputs cross the probe seam, not just the suffix after the
		// first approximate site.
		label := a.ProbeLabel
		if label == "" {
			label = "backend/" + be.Name()
		}
		r.probe = &probeRun{label: label}
		if bl, ok := be.(caps.Baseliner); ok && bl.ExactBaseline().Name() != be.Name() {
			r.probe.ref = bl.ExactBaseline()
		}
		r.frontier = 0
	}
	correct, err := a.runWindows(ctx, r)
	if err != nil {
		return 0, err
	}
	return float64(correct[0]) / float64(n), nil
}
