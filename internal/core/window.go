package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"redcane/internal/caps"
	"redcane/internal/noise"
	"redcane/internal/obs"
	"redcane/internal/tensor"
)

// This file is the engine's one window executor. Every number the
// methodology reports is a fold of per-batch integer correct-counts over
// the evaluation split: a noise sweep folds one count per noisy (point,
// trial) evaluation, a backend evaluation folds a single count. The
// counts of a batch are a pure function of (options, seed namespace,
// evaluation, batch), so windows may be computed anywhere and in any
// order; runWindows folds them in ascending batch order, which keeps the
// checkpoint a contiguous batch prefix and every aggregate bit-identical
// for any worker count, window layout or fleet size.
//
// Windows come from one of two sources. The local source evaluates
// windows in ascending order on this process's worker pool (windowJobs);
// the fleet source is Fleet.RunSweep's channel, whose one-batch windows
// may arrive in any order. Everything else — the checkpoint resume guard,
// the per-window checkpoint write, the afterWindow hook, the
// "sweep.window" trace, probe aggregation, cancellation and the sweep
// metrics — lives here once.

// sweepState is the checkpointed progress of one run: the per-evaluation
// correct-counts summed over the first BatchesDone batches.
type sweepState struct {
	Correct     []int `json:"correct"`
	BatchesDone int   `json:"batches_done"`
	Done        bool  `json:"done"`
}

// evalIdx names one evaluation of a run: a noisy (point, trial) of a
// sweep (NM = 0 is the clean point and is never enumerated), or the
// single evaluation of a backend run, which has no sweep point and is
// {-1, -1}.
type evalIdx struct{ pi, trial int }

// sweepEvals enumerates the (point, trial) evaluations of one sweep in
// the canonical order every fold path assumes: ascending point index,
// then ascending trial.
func sweepEvals(o Options) []evalIdx {
	var evals []evalIdx
	for pi, nm := range o.NMSweep {
		if nm == 0 {
			continue
		}
		for trial := 0; trial < o.Trials; trial++ {
			evals = append(evals, evalIdx{pi, trial})
		}
	}
	return evals
}

// pointNM is the noise magnitude of sweep point pi (0 for pi < 0).
func (o Options) pointNM(pi int) float64 {
	if pi < 0 {
		return 0
	}
	return o.NMSweep[pi]
}

// windowRun describes one fold over the evaluation split. The fields
// after nb configure the local source; fleet selects the fleet source.
type windowRun struct {
	// key is the checkpoint section; it also names the run in logs and
	// traces.
	key   string
	evals []evalIdx
	// n and nb are the evaluation split's example and batch counts.
	n, nb int

	// frontier is the first layer the run perturbs: the clean prefix
	// before it is computed once per window and replayed.
	frontier int
	be       caps.Backend
	// inject returns the injector of evaluation e on batch bi.
	inject func(e evalIdx, bi int) noise.Injector
	// probe, when non-nil, records numeric-health probes on every job.
	probe *probeRun

	// fleet, when non-nil, leases the windows to Analyzer.Fleet.
	fleet *SweepJob
}

// probeRun configures a run's probes: the record's label and the backend
// of the clean reference pass (nil skips the pass; the probes then carry
// ranges, moments and overflow counts only).
type probeRun struct {
	label string
	ref   caps.Backend
}

// batchWindow is one evaluated batch window [b0, b1): the per-job
// correct-counts in evaluation-major, batch-minor order and, when
// probing, the per-job probe recorders.
type batchWindow struct {
	b0, b1  int
	correct []int
	probes  []*caps.ProbeRecorder
}

// runWindows executes r and returns its per-evaluation correct-counts
// summed over the whole evaluation split.
//
// With a non-nil a.Checkpoint the counts persist under r.key after every
// folded window; a later run with the same key resumes after the last
// persisted window, or returns at once when the run had completed. A
// persisted section that cannot belong to r — wrong evaluation count,
// batch progress out of range, or counts that are negative or exceed the
// examples of the batches done — is treated as absent and recomputed.
//
// Cancelling ctx stops the run at a window boundary with ctx's error; a
// worker panic surfaces as a *JobPanicError naming the failing job; a
// fleet that stops short of the full split is an error. The checkpoint
// keeps the folded prefix in every case.
func (a *Analyzer) runWindows(ctx context.Context, r windowRun) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	correct := make([]int, len(r.evals))
	start := 0
	if a.Checkpoint != nil {
		var st sweepState
		if a.Checkpoint.Get(r.key, &st) && len(st.Correct) == len(r.evals) &&
			st.BatchesDone >= 0 && st.BatchesDone <= r.nb {
			done := st.BatchesDone
			if st.Done {
				done = r.nb
			}
			if countsWithin(st.Correct, min(done*a.Opts.Batch, r.n)) {
				copy(correct, st.Correct)
				start = done
				skipped := start * len(r.evals)
				a.Obs.Counter("sweep.resumed_jobs").Add(int64(skipped))
				a.Obs.Info("sweep resumed from checkpoint",
					obs.F("sweep", r.key),
					obs.F("batches", fmt.Sprintf("%d/%d", start, r.nb)),
					obs.F("skipped_jobs", skipped))
				if r.probe != nil && start > 0 {
					// Probe stats are never checkpointed, so they can only
					// cover the windows this process actually runs.
					a.Obs.Warn("probe stats cover only the un-resumed windows",
						obs.F("sweep", r.key), obs.F("skipped_batches", start))
				}
			}
		}
	}

	totalJobs := len(r.evals) * r.nb
	doneJobs := start * len(r.evals)
	a.Obs.Counter("sweep.sweeps").Inc()
	a.Obs.Counter("sweep.jobs").Add(int64(totalJobs - doneJobs))
	hist := a.Obs.Histogram("sweep.job_correct")
	probeAcc := map[int]*probeAccum{} // per sweep point
	pending := map[int]batchWindow{}
	next := start
	began := time.Now()
	last := began

	// fold buffers in and folds every window that extends the contiguous
	// prefix: correct-counts, the job-correct histogram (integer
	// observations, so bucket counts and sum are scheduling-invariant) and
	// the probe stats, each in ascending job order.
	fold := func(in batchWindow) error {
		if in.b1 <= in.b0 || len(in.correct) != len(r.evals)*(in.b1-in.b0) {
			return fmt.Errorf("window [%d, %d) returned %d counts, want %d per batch",
				in.b0, in.b1, len(in.correct), len(r.evals))
		}
		pending[in.b0] = in
		for w, ok := pending[next]; ok; w, ok = pending[next] {
			delete(pending, next)
			nbw := w.b1 - w.b0
			for j, c := range w.correct {
				correct[j/nbw] += c
				hist.Observe(float64(c))
			}
			for j, rec := range w.probes {
				pi := r.evals[j/nbw].pi
				if probeAcc[pi] == nil {
					probeAcc[pi] = newProbeAccum()
				}
				probeAcc[pi].merge(rec.Layers())
			}
			doneJobs += len(w.correct)
			next = w.b1
			if tr := a.Obs.Trace(); tr != nil {
				tr.Complete("sweep.window", "sweep", 0, last, time.Since(last),
					map[string]any{"sweep": r.key, "batches": fmt.Sprintf("%d-%d/%d", w.b0, w.b1, r.nb), "jobs": len(w.correct)})
			}
			if a.Checkpoint != nil {
				a.checkpointPut(r.key, sweepState{Correct: correct, BatchesDone: next, Done: next == r.nb})
			}
			if a.afterWindow != nil {
				a.afterWindow(next, r.nb)
			}
			a.logProgress(doneJobs, totalJobs, began)
			last = time.Now()
		}
		return nil
	}

	var err error
	switch {
	case start == r.nb:
	case r.fleet != nil:
		a.Obs.Info("sweep distributed to fleet",
			obs.F("sweep", r.key), obs.F("scope", r.fleet.Scope.String()),
			obs.F("windows", r.nb-start), obs.F("evals", len(r.evals)))
		var ch <-chan WindowResult
		if ch, err = a.Fleet.RunSweep(ctx, *r.fleet, start); err == nil {
			for res := range ch {
				if err = fold(batchWindow{b0: res.B0, b1: res.B1, correct: res.Correct}); err != nil {
					break
				}
			}
		}
	default:
		step := a.prefixWindow(r.frontier, r.nb)
		for b0 := start; b0 < r.nb && err == nil; b0 += step {
			if err = ctx.Err(); err == nil {
				var w batchWindow
				if w, err = a.windowJobs(ctx, r, b0, min(b0+step, r.nb)); err == nil {
					err = fold(w)
				}
			}
		}
	}
	if err == nil && next < r.nb {
		// The source stopped short of the full split: the run was
		// cancelled (coordinator drain or shutdown) or the fleet failed.
		if err = ctx.Err(); err == nil {
			err = fmt.Errorf("sweep %s incomplete: %d/%d batches folded", r.key, next, r.nb)
		}
	}
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			a.Obs.Warn("sweep cancelled",
				obs.F("sweep", r.key), obs.F("batches", fmt.Sprintf("%d/%d", next, r.nb)))
		}
		return nil, err
	}

	if dur := time.Since(began); totalJobs > 0 {
		a.Obs.Timer("sweep.duration").Observe(dur)
		rate := float64(totalJobs) / dur.Seconds()
		a.Obs.Gauge("sweep.last_jobs_per_sec").Set(rate)
		a.Obs.Debug("sweep complete",
			obs.F("sweep", r.key), obs.F("frontier", r.frontier), obs.F("jobs", totalJobs),
			obs.F("dur", dur.Round(time.Millisecond)),
			obs.F("jobs_per_sec", fmt.Sprintf("%.1f", rate)))
	}
	if len(probeAcc) > 0 {
		swp := ProbeSweep{Label: r.probe.label, Backend: r.be.Name()}
		for ei, e := range r.evals {
			if p := probeAcc[e.pi]; p != nil && (ei == 0 || r.evals[ei-1].pi != e.pi) {
				swp.Points = append(swp.Points, ProbePoint{NM: a.Opts.pointNM(e.pi), Layers: p.emit()})
			}
		}
		a.Probes.add(swp)
	}
	return correct, nil
}

// countsWithin reports whether every count lies in [0, limit].
func countsWithin(counts []int, limit int) bool {
	for _, c := range counts {
		if c < 0 || c > limit {
			return false
		}
	}
	return true
}

// logProgress emits a debug-level progress line with the run's job rate
// and ETA while jobs remain.
func (a *Analyzer) logProgress(doneJobs, totalJobs int, began time.Time) {
	if !a.Obs.Enabled(obs.Debug) || doneJobs >= totalJobs {
		return
	}
	rate := float64(doneJobs) / time.Since(began).Seconds()
	fields := []obs.Field{
		obs.F("jobs", fmt.Sprintf("%d/%d", doneJobs, totalJobs)),
		obs.F("jobs_per_sec", fmt.Sprintf("%.1f", rate)),
	}
	// A zero rate (clock granularity, resumed runs doing no new work yet)
	// would make the ETA division yield +Inf.
	if rate > 0 {
		eta := time.Duration(float64(totalJobs-doneJobs) / rate * float64(time.Second))
		fields = append(fields, obs.F("eta", eta.Round(time.Second)))
	}
	a.Obs.Debug("sweep progress", fields...)
}

// windowJobs evaluates every evaluation × batch job of the batch window
// [b0, b1) of a local run on the worker pool. This is the one code path
// that turns a window into counts — the local source and the worker-side
// EvalWindow both call it, which is what makes a leased window's counts
// bit-identical to the in-process ones.
func (a *Analyzer) windowJobs(ctx context.Context, r windowRun, b0, b1 int) (batchWindow, error) {
	o := a.Opts
	x, y := a.evalData()
	acts, err := a.prefixActivations(ctx, r.frontier, x, b0, b1, r.nb, r.be)
	if err != nil {
		return batchWindow{}, err
	}
	// One job per (evaluation, batch); each job owns its result slot.
	nbw := b1 - b0
	w := batchWindow{b0: b0, b1: b1, correct: make([]int, len(r.evals)*nbw)}
	if r.probe != nil {
		w.probes = make([]*caps.ProbeRecorder, len(w.correct))
	}
	err = runJobs(ctx, a.Obs, o.sweepWorkers(), len(w.correct), func(j int, s *tensor.Scratch) {
		e := r.evals[j/nbw]
		bi := b0 + j%nbw
		act := acts[bi-b0]
		inj := r.inject(e, bi)
		var pred []int
		if r.probe != nil {
			// Reference pass: the clean suffix, recorded at the Backend
			// seam. noise.None draws nothing from inj, and the kernels
			// write scratch buffers before reading them, so the extra
			// pass cannot perturb the result pass below.
			rec := caps.NewProbeRecorder()
			if r.probe.ref != nil {
				rec.StartReference()
				a.Net.ClassifyFromExec(r.frontier, act, noise.None{}, s, caps.NewProbeBackend(r.probe.ref, rec))
			}
			rec.StartObserve()
			pred = a.Net.ClassifyFromExec(r.frontier, act, inj, s, caps.NewProbeBackend(r.be, rec))
			w.probes[j] = rec
		} else {
			pred = a.Net.ClassifyFromExec(r.frontier, act, inj, s, r.be)
		}
		lo := bi * o.Batch
		c := 0
		for i, p := range pred {
			if p == y[lo+i] {
				c++
			}
		}
		w.correct[j] = c
	})
	if err != nil {
		var wp *workerPanic
		if errors.As(err, &wp) {
			e := r.evals[wp.Job/nbw]
			return batchWindow{}, &JobPanicError{
				Point: e.pi, NM: o.pointNM(e.pi), Trial: e.trial, Batch: b0 + wp.Job%nbw,
				Value: wp.Value, Stack: wp.Stack,
			}
		}
		return batchWindow{}, err
	}
	return w, nil
}
