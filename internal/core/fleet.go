package core

import (
	"context"
	"fmt"

	"redcane/internal/noise"
	"redcane/internal/obs"
)

// This file is the engine's distribution seam. A sweep's per-batch
// correct-counts are a counter-seeded function of (Options.Seed,
// seedBase, point, trial, batch) — no state flows between jobs — so any
// process that can rebuild the network and evaluation split can compute
// any batch's counts bit-identically. The Fleet interface leases
// one-batch windows to such remote processes and streams their counts
// back; the coordinator hands that stream to the same window executor
// the local path uses (runWindows), which folds it in ascending batch
// order through the same checkpoint. That is what makes an N-worker
// fleet's artifacts byte-identical to a single-process run.

// SweepScope names a sweep's site filter in wire-friendly form: the
// Table III group plus, for layer-wise sweeps, the layer. It is the
// serializable counterpart of noise.ForGroup / noise.ForLayerGroup —
// closures cannot cross a process boundary, scopes can.
type SweepScope struct {
	Group string `json:"group"`
	Layer string `json:"layer,omitempty"`
}

// ScopeForGroup names a group-wise sweep's filter.
func ScopeForGroup(g noise.Group) SweepScope {
	return SweepScope{Group: g.String()}
}

// ScopeForLayer names a layer-wise sweep's filter.
func ScopeForLayer(layer string, g noise.Group) SweepScope {
	return SweepScope{Group: g.String(), Layer: layer}
}

// Filter resolves the scope back to the site filter it names.
func (s SweepScope) Filter() (noise.Filter, error) {
	g, ok := groupByName(s.Group)
	if !ok {
		return nil, fmt.Errorf("sweep scope names unknown group %q", s.Group)
	}
	if s.Layer != "" {
		return noise.ForLayerGroup(s.Layer, g), nil
	}
	return noise.ForGroup(g), nil
}

// String renders the scope for logs and metrics labels.
func (s SweepScope) String() string {
	if s.Layer != "" {
		return s.Layer + "/" + s.Group
	}
	return s.Group
}

// SweepJob describes one sweep for remote execution. Everything a worker
// needs to reproduce a window bit-identically travels here: the scope,
// the seed namespace, and the results-affecting options. Evals and NB are
// the coordinator's view of the evaluation grid; workers recompute both
// and refuse mismatches, which catches drift (different dataset size,
// options, or code) before a wrong count is folded.
type SweepJob struct {
	// Key is the sweep's checkpoint key ("sweep-<seedBase>"), unique
	// within one analysis.
	Key string `json:"key"`
	// SeedBase namespaces the sweep's RNG streams (noise.StreamSeed).
	SeedBase uint64     `json:"seed_base"`
	Scope    SweepScope `json:"scope"`
	Opts     Options    `json:"opts"`
	// Evals is the number of noisy (point, trial) evaluations; every
	// window result carries exactly this many counts.
	Evals int `json:"evals"`
	// NB is the total batch count of the evaluation split.
	NB int `json:"nb"`
	// Examples is the evaluation-split size, which bounds each window's
	// correct counts (the last batch is usually short of Opts.Batch); the
	// coordinator uses it to reject impossible completions.
	Examples int `json:"examples"`
}

// WindowResult is one completed batch window [B0, B1): the per-(point,
// trial) correct counts summed over the window's batches, in the
// canonical sweepEvals order.
type WindowResult struct {
	B0      int   `json:"b0"`
	B1      int   `json:"b1"`
	Correct []int `json:"correct"`
}

// Fleet distributes a sweep's batch windows to remote executors.
// RunSweep must deliver every one-batch window of [start, job.NB) exactly
// once, in any order, then close the channel; when ctx is cancelled it may close
// the channel early. The coordinator owns ordering and folding — a Fleet
// only moves windows out and counts back.
type Fleet interface {
	RunSweep(ctx context.Context, job SweepJob, start int) (<-chan WindowResult, error)
}

// EvalWindow is the worker-side entry point of distributed sweeps: it
// evaluates every (point, trial) job of the batch window [b0, b1) and
// returns the per-(point, trial) correct counts summed over the window's
// batches — the exact integers the local engine folds, computed by the
// same windowJobs path, so a fleet fold is bit-identical to a
// single-process run.
func (a *Analyzer) EvalWindow(ctx context.Context, scope SweepScope, seedBase uint64, b0, b1 int) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	a.Opts = a.Opts.WithDefaults()
	filter, err := scope.Filter()
	if err != nil {
		return nil, err
	}
	r, err := a.sweepRun(filter, seedBase)
	if err != nil {
		return nil, err
	}
	if b0 < 0 || b1 <= b0 || b1 > r.nb {
		return nil, fmt.Errorf("window [%d, %d) out of range (nb=%d)", b0, b1, r.nb)
	}
	w, err := a.windowJobs(ctx, r, b0, b1)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(r.evals))
	for j, c := range w.correct {
		out[j/(b1-b0)] += c
	}
	return out, nil
}

// SweepGrid returns the coordinator's view of a sweep's work grid under
// the analyzer's options: the number of noisy (point, trial) evaluations
// and the total batch count. Workers recompute the same pair as a drift
// guard.
func (a *Analyzer) SweepGrid() (evals, nb int) {
	o := a.Opts.WithDefaults()
	x, _ := a.evalData()
	return len(sweepEvals(o)), (x.Shape[0] + o.Batch - 1) / o.Batch
}

// sweepScoped runs one named sweep: through the fleet when the analyzer
// has one, locally otherwise. The filter-based sweep entry points are
// untouched — only the named group/layer sweeps of the methodology can
// be distributed, because only they have wire-representable scopes.
func (a *Analyzer) sweepScoped(ctx context.Context, scope SweepScope, clean float64, seedBase uint64) ([]SweepPoint, error) {
	filter, err := scope.Filter()
	if err != nil {
		return nil, err
	}
	if a.Fleet == nil {
		return a.sweep(ctx, filter, clean, seedBase)
	}
	return a.sweepFleet(ctx, scope, clean, seedBase)
}

// sweepFleet is the coordinator side of a distributed sweep: the same
// run as the local sweep, under the same checkpoint key, with its windows
// leased to a.Fleet. A coordinator restart resumes after the last
// contiguous window, and a fleet run can resume a local checkpoint (and
// vice versa).
func (a *Analyzer) sweepFleet(ctx context.Context, scope SweepScope, clean float64, seedBase uint64) ([]SweepPoint, error) {
	o := a.Opts
	n, nb := a.evalSize()
	evals := sweepEvals(o)
	if a.Probes != nil {
		// Probe recorders live on the workers' passes and never travel the
		// wire; a distributed sweep records no probe stats.
		a.Obs.Warn("probes are not collected over a fleet", obs.F("sweep", scope.String()))
	}
	key := fmt.Sprintf("sweep-%d", seedBase)
	correct, err := a.runWindows(ctx, windowRun{key: key, evals: evals, n: n, nb: nb, fleet: &SweepJob{
		Key: key, SeedBase: seedBase, Scope: scope,
		Opts: o, Evals: len(evals), NB: nb, Examples: n,
	}})
	if err != nil {
		return nil, err
	}
	return assemblePoints(o, correct, clean, n), nil
}
