package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"redcane/internal/caps"
	"redcane/internal/noise"
	"redcane/internal/obs"
	"redcane/internal/tensor"
)

// This file implements the sweep engine: the hot path of the methodology.
// Steps 2 and 4 re-run full test-set inference for every (group or layer)
// × noise-magnitude point × trial, which dominates the total analysis
// cost (the paper skips resilient groups for exactly this reason). Three
// accelerations apply:
//
//  1. Clean-prefix activation caching. Noise is injected only at the
//     sites selected by the sweep's filter, so every layer before the
//     first active site (the injection frontier) produces bit-identical
//     clean activations at every sweep point and trial. The engine
//     computes each batch's clean activation up to the frontier once and
//     replays only the suffix per evaluation. The cache is bounded by
//     Options.PrefixCacheMB: when the whole evaluation set fits, it is
//     retained on the Analyzer for back-to-back sweeps sharing a frontier
//     (e.g. the softmax and logits-update groups); otherwise batches run
//     in windows that fit, re-deriving the prefix per window.
//  2. Deterministic parallel evaluation. Work is scheduled as
//     independent (sweep point × trial × batch) jobs over a
//     GOMAXPROCS-aware, panic-safe, cancellable worker pool
//     (Options.Workers). Each job draws its noise from a counter-seeded
//     RNG stream of (Options.Seed, sweep-call counter, point, trial,
//     batch) via noise.StreamSeed, so results are bit-identical for any
//     worker count and any scheduling order.
//  3. Scratch-arena reuse. Each worker owns a tensor.Scratch, so the
//     im2col / product / routing temporaries of repeated suffix forwards
//     recycle instead of churning the garbage collector.
//
// The windows are folded, checkpointed and resumed by the one window
// executor in window.go.

// prefixCache retains the clean activations at one frontier for the whole
// evaluation set, one tensor per batch. base is the producing backend's
// BaseID: backends sharing a baseline produce bit-identical prefixes, so
// a cache keyed (frontier, base) is shared across designs with the same
// exact arithmetic (e.g. every 8-bit quantized design), but never across
// arithmetic families (float vs quant8).
type prefixCache struct {
	frontier int
	base     string
	acts     []*tensor.Tensor
}

// sweepWorkers resolves the configured worker bound.
func (o Options) sweepWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// JobPanicError reports a panic recovered inside a sweep-engine worker,
// carrying the coordinates of the failing evaluation job. Point indexes
// Options.NMSweep; Point and Trial are -1 for jobs that evaluate no sweep
// point: clean-prefix jobs and backend evaluations.
type JobPanicError struct {
	Point int
	NM    float64
	Trial int
	Batch int
	// Value is the recovered panic value; Stack the worker's stack at
	// the point of the panic.
	Value any
	Stack []byte
}

// Error implements error.
func (e *JobPanicError) Error() string {
	if e.Point < 0 {
		return fmt.Sprintf("sweep: worker panic on batch %d (no sweep point): %v", e.Batch, e.Value)
	}
	return fmt.Sprintf("sweep: worker panic at point=%d (NM=%g) trial=%d batch=%d: %v",
		e.Point, e.NM, e.Trial, e.Batch, e.Value)
}

// workerPanic is runJobs' internal panic capture; callers translate the
// flat job index into domain coordinates.
type workerPanic struct {
	Job   int
	Value any
	Stack []byte
}

func (e *workerPanic) Error() string {
	return fmt.Sprintf("worker panic on job %d: %v", e.Job, e.Value)
}

// runJobs executes fn(j) for j in [0, jobs) on up to `workers`
// goroutines, handing each worker a private scratch arena. fn must write
// only to its own job's result slot; under that contract the outcome is
// independent of scheduling.
//
// The pool is panic-safe and cancellable: a panic inside fn is recovered
// and returned as a *workerPanic (first one wins; later jobs stop being
// dispatched), and when ctx is cancelled dispatch stops at the next job
// boundary while in-flight jobs drain, returning ctx.Err(). Partial
// results are therefore incomplete whenever runJobs returns non-nil —
// callers must discard them.
//
// With a non-nil o, each worker's busy time (wall time spent inside fn)
// and its scratch arena's traffic are folded into the worker-pool gauges
// after the pool drains; with a nil o the loop is untouched.
func runJobs(ctx context.Context, o *obs.Obs, workers, jobs int, fn func(j int, s *tensor.Scratch)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	m := o.Metrics()
	var start time.Time
	var busy []time.Duration
	if m != nil {
		start = time.Now()
		busy = make([]time.Duration, workers)
	}

	var failed atomic.Bool
	var failMu sync.Mutex
	var fail *workerPanic
	record := func(j int, v any, stack []byte) {
		failMu.Lock()
		if fail == nil {
			fail = &workerPanic{Job: j, Value: v, Stack: stack}
		}
		failMu.Unlock()
		failed.Store(true)
	}

	scratches := make([]*tensor.Scratch, workers)
	runOn := func(w, j int, s *tensor.Scratch) {
		if m != nil {
			t0 := time.Now()
			defer func() { busy[w] += time.Since(t0) }()
		}
		defer func() {
			if v := recover(); v != nil {
				record(j, v, debug.Stack())
			}
		}()
		fn(j, s)
	}
	var cancelErr error
	if workers == 1 {
		s := tensor.NewScratch()
		scratches[0] = s
		for j := 0; j < jobs; j++ {
			if err := ctx.Err(); err != nil {
				cancelErr = err
				break
			}
			if failed.Load() {
				break
			}
			runOn(0, j, s)
		}
	} else {
		ch := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := tensor.NewScratch()
				scratches[w] = s
				for j := range ch {
					runOn(w, j, s)
				}
			}(w)
		}
	dispatch:
		for j := 0; j < jobs; j++ {
			if failed.Load() {
				break
			}
			select {
			case ch <- j:
			case <-ctx.Done():
				cancelErr = ctx.Err()
				break dispatch
			}
		}
		close(ch)
		wg.Wait()
	}
	if m != nil {
		wall := time.Since(start)
		var total time.Duration
		for _, b := range busy {
			total += b
		}
		m.Gauge("sweep.workers.busy_ns").Add(float64(total))
		m.Gauge("sweep.workers.wall_ns").Add(float64(wall))
		m.Gauge("sweep.workers.count").Set(float64(workers))
		if wall > 0 && workers > 0 {
			m.Gauge("sweep.workers.utilization").Set(float64(total) / (float64(wall) * float64(workers)))
		}
		var st tensor.ScratchStats
		for _, s := range scratches {
			st = st.Plus(s.Stats())
		}
		m.Gauge("tensor.scratch.takes").Add(float64(st.Takes))
		m.Gauge("tensor.scratch.reuses").Add(float64(st.Reuses))
		m.Gauge("tensor.scratch.allocs").Add(float64(st.Allocs))
		m.Gauge("tensor.scratch.alloc_bytes").Add(float64(st.AllocBytes))
		m.Gauge("tensor.scratch.dropped").Add(float64(st.Dropped))
		m.Gauge("tensor.scratch.free_bytes").Add(float64(st.FreeBytes))
	}
	if fail != nil {
		return fail
	}
	return cancelErr
}

// prefixBytesPerBatch estimates the byte size of one batch's clean
// activation at the frontier from the layers' static shape arithmetic.
func (a *Analyzer) prefixBytesPerBatch(frontier, batch int) int {
	shape := append([]int{batch}, a.Net.InputShape...)
	for _, l := range a.Net.Layers[:frontier] {
		_, shape = l.Ops(shape)
	}
	elems := 1
	for _, d := range shape {
		elems *= d
	}
	return 8 * elems
}

// prefixWindow returns how many batches of frontier activations fit the
// configured memory bound (always at least one).
func (a *Analyzer) prefixWindow(frontier, nb int) int {
	per := a.prefixBytesPerBatch(frontier, a.Opts.Batch)
	budget := a.Opts.PrefixCacheMB * 1 << 20
	if budget < 0 {
		// Negative PrefixCacheMB means "smallest possible windows"; the
		// byte budget itself must never go negative.
		budget = 0
	}
	w := 1
	if per > 0 {
		w = budget / per
	}
	if w < 1 {
		w = 1
	}
	if w > nb {
		w = nb
	}
	return w
}

// prefixActivations returns the clean activations at the frontier for
// batches [b0, b1), computed under the given execution backend. When the
// window spans the whole evaluation set the result is retained on the
// Analyzer and reused by subsequent evaluations with the same frontier
// and backend baseline. frontier == 0 returns zero-copy views of x.
func (a *Analyzer) prefixActivations(ctx context.Context, frontier int, x *tensor.Tensor, b0, b1, nb int, be caps.Backend) ([]*tensor.Tensor, error) {
	n := x.Shape[0]
	sample := x.Len() / n
	batch := a.Opts.Batch
	view := func(bi int) *tensor.Tensor {
		lo := bi * batch
		hi := lo + batch
		if hi > n {
			hi = n
		}
		shape := append([]int{hi - lo}, x.Shape[1:]...)
		return tensor.NewFrom(x.Data[lo*sample:hi*sample], shape...)
	}

	acts := make([]*tensor.Tensor, b1-b0)
	if frontier == 0 {
		a.Obs.Counter("sweep.prefix_cache.bypass").Inc()
		for bi := b0; bi < b1; bi++ {
			acts[bi-b0] = view(bi)
		}
		return acts, nil
	}
	whole := b0 == 0 && b1 == nb
	if whole && a.pcache != nil && a.pcache.frontier == frontier && a.pcache.base == be.BaseID() {
		a.Obs.Counter("sweep.prefix_cache.hits").Inc()
		return a.pcache.acts, nil
	}
	a.Obs.Counter("sweep.prefix_cache.misses").Inc()
	err := runJobs(ctx, a.Obs, a.Opts.sweepWorkers(), b1-b0, func(j int, _ *tensor.Scratch) {
		acts[j] = a.Net.ForwardToExec(frontier, view(b0+j), noise.None{}, be)
	})
	if err != nil {
		var wp *workerPanic
		if errors.As(err, &wp) {
			return nil, &JobPanicError{Point: -1, Trial: -1, Batch: b0 + wp.Job, Value: wp.Value, Stack: wp.Stack}
		}
		return nil, err
	}
	if whole {
		a.pcache = &prefixCache{frontier: frontier, base: be.BaseID(), acts: acts}
		var bytes int64
		for _, t := range acts {
			bytes += 8 * int64(len(t.Data))
		}
		a.Obs.Gauge("sweep.prefix_cache.retained_bytes").Set(float64(bytes))
		a.Obs.Debug("prefix cache retained",
			obs.F("frontier", frontier), obs.F("batches", len(acts)), obs.F("bytes", bytes))
	}
	return acts, nil
}

// Sweep measures accuracy across the NM grid with the given site filter.
// seedBase namespaces the RNG streams of distinct sweeps; reuse the same
// value to reproduce a sweep bit-for-bit. Cancelling ctx stops the sweep
// at a batch-window boundary with ctx's error; a worker panic surfaces
// as a *JobPanicError naming the failing (point, trial, batch) job.
func (a *Analyzer) Sweep(ctx context.Context, filter noise.Filter, clean float64, seedBase uint64) ([]SweepPoint, error) {
	return a.sweep(ctx, filter, clean, seedBase)
}

// sweep measures accuracy across the NM grid with the given site filter
// on this process's worker pool. seedBase is a per-sweep counter folded
// into every job's RNG stream, so distinct sweeps draw independent noise
// while identical configurations reproduce bit-for-bit, regardless of
// Options.Workers. With a non-nil a.Checkpoint the sweep checkpoints and
// resumes under the key "sweep-<seedBase>" (see runWindows).
func (a *Analyzer) sweep(ctx context.Context, filter noise.Filter, clean float64, seedBase uint64) ([]SweepPoint, error) {
	r, err := a.sweepRun(filter, seedBase)
	if err != nil {
		return nil, err
	}
	if a.Probes != nil {
		// Numeric-health probes: opt-in, never checkpointed, provably
		// inert (the probed pass is the result pass; see probe.go).
		label := a.ProbeLabel
		if label == "" {
			label = r.key
		}
		r.probe = &probeRun{label: label, ref: r.be}
	}
	correct, err := a.runWindows(ctx, r)
	if err != nil {
		return nil, err
	}
	return assemblePoints(a.Opts, correct, clean, r.n), nil
}

// sweepRun describes the local run of the sweep named by seedBase: one
// evaluation per noisy (point, trial), each job's noise drawn from a
// counter-seeded stream of (Options.Seed, seedBase, point, trial, batch).
func (a *Analyzer) sweepRun(filter noise.Filter, seedBase uint64) (windowRun, error) {
	o := a.Opts
	if _, err := o.Noise.Normalize(); err != nil {
		return windowRun{}, err
	}
	be, err := a.execBackend(caps.Float{})
	if err != nil {
		return windowRun{}, err
	}
	n, nb := a.evalSize()
	// A non-exact nonlinearity perturbs every routing layer, so the clean
	// prefix must stop before the first affected one (Float never shortens
	// this: its ApproxLayer is constant-false).
	frontier := min(a.Net.InjectionFrontier(filter), a.Net.BackendFrontier(be))
	return windowRun{
		key: fmt.Sprintf("sweep-%d", seedBase), evals: sweepEvals(o), n: n, nb: nb,
		frontier: frontier, be: be,
		inject: func(e evalIdx, bi int) noise.Injector {
			seed := noise.StreamSeed(o.Seed, seedBase, uint64(e.pi), uint64(e.trial), uint64(bi))
			return o.Noise.Injector(o.NMSweep[e.pi], o.NA, filter, seed)
		},
	}, nil
}

// assemblePoints turns the folded per-(point, trial) correct counts into
// the sweep's points. Shared by the local and fleet sweep paths so a
// distributed sweep's report is assembled by exactly the in-process code.
func assemblePoints(o Options, correct []int, clean float64, n int) []SweepPoint {
	points := make([]SweepPoint, len(o.NMSweep))
	ei := 0
	for pi, nm := range o.NMSweep {
		acc := clean
		if nm != 0 {
			total := 0
			for trial := 0; trial < o.Trials; trial++ {
				total += correct[ei]
				ei++
			}
			acc = float64(total) / float64(o.Trials*n)
		}
		points[pi] = SweepPoint{NM: nm, Accuracy: acc, Drop: acc - clean}
	}
	return points
}
