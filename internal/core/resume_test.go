package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"redcane/internal/caps"
	"redcane/internal/checkpoint"
	"redcane/internal/noise"
	"redcane/internal/obs"
	"redcane/internal/tensor"
)

func TestRunJobsRecoversPanicSerial(t *testing.T) {
	err := runJobs(context.Background(), nil, 1, 6, func(j int, _ *tensor.Scratch) {
		if j == 3 {
			panic("boom")
		}
	})
	var wp *workerPanic
	if !errors.As(err, &wp) {
		t.Fatalf("error = %v, want *workerPanic", err)
	}
	if wp.Job != 3 || wp.Value != "boom" || len(wp.Stack) == 0 {
		t.Fatalf("panic capture = %+v", wp)
	}
}

func TestRunJobsRecoversPanicParallel(t *testing.T) {
	var ran atomic.Int64
	err := runJobs(context.Background(), nil, 4, 64, func(j int, _ *tensor.Scratch) {
		ran.Add(1)
		if j == 10 {
			panic("kaboom")
		}
	})
	var wp *workerPanic
	if !errors.As(err, &wp) {
		t.Fatalf("error = %v, want *workerPanic", err)
	}
	if wp.Value != "kaboom" {
		t.Fatalf("panic value = %v", wp.Value)
	}
	// Dispatch stops once a panic is recorded: far fewer than all jobs run.
	if n := ran.Load(); n == 0 || n > 64 {
		t.Fatalf("ran = %d jobs", n)
	}
}

func TestRunJobsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := runJobs(ctx, nil, 2, 1000, func(j int, _ *tensor.Scratch) {
		if ran.Add(1) == 5 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("cancellation did not stop dispatch: ran %d", n)
	}
}

// panicAfter returns a MAC-outputs filter that panics once it has been
// consulted more than n times. InjectionFrontier probes the filter outside
// the worker pool, so n must exceed one frontier scan; the overflow then
// fires inside a sweep worker's injection path.
func panicAfter(n int64) noise.Filter {
	var calls atomic.Int64
	inner := noise.ForGroup(noise.MACOutputs)
	return func(s noise.Site) bool {
		if calls.Add(1) > n {
			panic("injector exploded")
		}
		return inner(s)
	}
}

// panicBackend is the float backend with every layer marked approximate
// (frontier 0, so each job's first convolution sees its batch's raw input
// view) and a Conv2D that panics on the batch whose input starts at at.
type panicBackend struct {
	caps.Float
	at *float64
}

func (panicBackend) Name() string            { return "panic" }
func (panicBackend) ApproxLayer(string) bool { return true }

func (b panicBackend) Conv2D(layer string, x, w, bias *tensor.Tensor, stride, pad int, s *tensor.Scratch) *tensor.Tensor {
	if &x.Data[0] == b.at {
		panic("backend exploded")
	}
	return b.Float.Conv2D(layer, x, w, bias, stride, pad, s)
}

func TestSweepSurfacesWorkerPanicWithCoordinates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		a := derived(t)
		a.Opts.Workers = workers
		_, err := a.sweep(context.Background(), panicAfter(50), 0.9, 1)
		var jp *JobPanicError
		if !errors.As(err, &jp) {
			t.Fatalf("workers=%d: error = %v, want *JobPanicError", workers, err)
		}
		if jp.Point < 0 || jp.Point >= len(a.Opts.NMSweep) ||
			jp.Trial < 0 || jp.Trial >= a.Opts.Trials || jp.Batch < 0 {
			t.Fatalf("workers=%d: coordinates out of range: %+v", workers, jp)
		}
		if jp.NM != a.Opts.NMSweep[jp.Point] {
			t.Fatalf("workers=%d: NM %g does not match point %d", workers, jp.NM, jp.Point)
		}
		msg := jp.Error()
		for _, want := range []string{"worker panic", "point=", "trial=", "batch=", "injector exploded"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("workers=%d: error message missing %q: %s", workers, want, msg)
			}
		}

		// A backend evaluation has no sweep point: its panic carries
		// Point -1 and the failing batch.
		b := derived(t)
		b.Opts.Workers = workers
		x, _ := b.evalData()
		const failing = 2
		be := panicBackend{at: &x.Data[failing*b.Opts.Batch*(x.Len()/x.Shape[0])]}
		_, err = b.EvalBackend(context.Background(), be, "panic")
		if !errors.As(err, &jp) {
			t.Fatalf("workers=%d: EvalBackend error = %v, want *JobPanicError", workers, err)
		}
		if jp.Point != -1 || jp.Trial != -1 || jp.Batch != failing || jp.Value != "backend exploded" {
			t.Fatalf("workers=%d: EvalBackend panic = %+v, want point -1 at batch %d", workers, jp, failing)
		}
	}
}

func TestSweepCancelledMidRunReturnsContextError(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(ctx context.Context, a *Analyzer) error
	}{
		{"sweep", func(ctx context.Context, a *Analyzer) error {
			_, err := a.sweep(ctx, noise.ForGroup(noise.MACOutputs), 0.9, 1)
			return err
		}},
		{"eval-backend", func(ctx context.Context, a *Analyzer) error {
			_, err := a.EvalBackend(ctx, designBackend(t, a), "cancel")
			return err
		}},
	} {
		a := derived(t)
		a.Opts.PrefixCacheMB = -1 // single-batch windows: several cancellation points
		ctx, cancel := context.WithCancel(context.Background())
		var windows int
		a.afterWindow = func(done, total int) {
			windows++
			cancel()
		}
		if err := c.run(ctx, a); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error = %v, want context.Canceled", c.name, err)
		}
		if windows != 1 {
			t.Fatalf("%s: run continued after cancellation: %d windows", c.name, windows)
		}
	}
}

// resumeStore opens a checkpoint store in dir for the derived fixture.
func resumeStore(t *testing.T, dir string, opts Options) (*checkpoint.Store, bool) {
	t.Helper()
	st, resumed, err := checkpoint.Open(dir, "test", 5, opts.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	return st, resumed
}

func TestSweepResumeMatchesUninterrupted(t *testing.T) {
	// The tentpole acceptance test at the engine level: interrupt a sweep
	// after its first batch window, resume it from the checkpoint, and the
	// final points must be bit-identical to an uninterrupted run.
	dir := t.TempDir()
	filter := noise.ForGroup(noise.Softmax)
	const clean = 0.9

	want := derived(t)
	want.Opts.PrefixCacheMB = -1
	wantPts := mustSweep(t, want, filter, clean, 9)

	// Interrupted run: cancel after the first checkpointed window.
	a := derived(t)
	a.Opts.PrefixCacheMB = -1
	st, resumed := resumeStore(t, dir, a.Opts)
	if resumed {
		t.Fatal("fresh store reported resumed")
	}
	a.Checkpoint = st
	ctx, cancel := context.WithCancel(context.Background())
	a.afterWindow = func(done, total int) {
		if done == 1 {
			cancel()
		}
	}
	if _, err := a.sweep(ctx, filter, clean, 9); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep error = %v", err)
	}

	// Resumed run: a fresh analyzer over the same store skips the finished
	// window (visible in sweep.resumed_jobs) and completes identically.
	b := derived(t)
	b.Opts.PrefixCacheMB = -1
	b.Obs = obs.New(obs.Off, nil)
	st2, resumed := resumeStore(t, dir, b.Opts)
	if !resumed {
		t.Fatal("store with checkpointed data reported fresh")
	}
	b.Checkpoint = st2
	gotPts := mustSweep(t, b, filter, clean, 9)
	samePoints(t, "resumed vs uninterrupted", wantPts, gotPts)
	if v := b.Obs.Counter("sweep.resumed_jobs").Value(); v <= 0 {
		t.Fatalf("sweep.resumed_jobs = %d, want > 0", v)
	}

	// Fully-finished sweep: a third run resumes the Done state and repeats
	// no jobs at all.
	c := derived(t)
	c.Opts.PrefixCacheMB = -1
	c.Obs = obs.New(obs.Off, nil)
	st3, _ := resumeStore(t, dir, c.Opts)
	c.Checkpoint = st3
	again := mustSweep(t, c, filter, clean, 9)
	samePoints(t, "fully resumed", wantPts, again)
	total := int64(0)
	for _, nm := range c.Opts.NMSweep {
		if nm != 0 {
			total += int64(c.Opts.Trials)
		}
	}
	nb := int64((c.Data.TestX.Shape[0] + c.Opts.Batch - 1) / c.Opts.Batch)
	if v := c.Obs.Counter("sweep.resumed_jobs").Value(); v != total*nb {
		t.Fatalf("fully resumed sweep.resumed_jobs = %d, want %d", v, total*nb)
	}
}

func TestSweepIgnoresCheckpointFromOtherOptions(t *testing.T) {
	// A store opened under a different fingerprint must not leak state: the
	// identity is part of the file key, so Open returns a fresh store.
	dir := t.TempDir()
	a := derived(t)
	st, _ := resumeStore(t, dir, a.Opts)
	a.Checkpoint = st
	mustSweep(t, a, noise.ForGroup(noise.MACOutputs), 0.9, 2)

	b := derived(t)
	b.Opts.Trials = a.Opts.Trials + 1 // results-affecting change
	if fp := b.Opts.Fingerprint(); fp == a.Opts.Fingerprint() {
		t.Fatal("fingerprint ignored Trials")
	}
	_, resumed := resumeStore(t, dir, b.Opts)
	if resumed {
		t.Fatal("checkpoint resumed across a results-affecting options change")
	}
}

func TestSweepIgnoresImpossibleCheckpointCounts(t *testing.T) {
	// A section whose key matches but whose counts cannot come from the
	// batches it claims — negative, or more correct answers than examples
	// — must be treated as absent: the run recomputes from scratch and
	// matches the uninterrupted result instead of reporting an accuracy
	// outside [0, 1].
	filter := noise.ForGroup(noise.Softmax)
	const clean, seedBase = 0.9, 19
	want := derived(t)
	wantPts := mustSweep(t, want, filter, clean, seedBase)
	wantAcc, err := derived(t).EvalBackend(context.Background(), nil, "float-eval")
	if err != nil {
		t.Fatal(err)
	}

	evals := len(sweepEvals(want.Opts))
	n := want.Data.TestX.Shape[0]
	nb := (n + want.Opts.Batch - 1) / want.Opts.Batch
	fill := func(k, v int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = v
		}
		return out
	}
	for _, c := range []struct {
		name string
		st   func(evals int) sweepState
	}{
		{"negative", func(k int) sweepState { return sweepState{Correct: fill(k, -1), BatchesDone: 1} }},
		{"above first batch", func(k int) sweepState {
			return sweepState{Correct: fill(k, want.Opts.Batch+1), BatchesDone: 1}
		}},
		{"above split", func(k int) sweepState { return sweepState{Correct: fill(k, n+1), BatchesDone: nb, Done: true} }},
		{"done flag above progress", func(k int) sweepState {
			return sweepState{Correct: fill(k, n+1), BatchesDone: 0, Done: true}
		}},
	} {
		a := derived(t)
		a.Obs = obs.New(obs.Off, nil)
		st, _ := resumeStore(t, t.TempDir(), a.Opts)
		if err := st.Put(fmt.Sprintf("sweep-%d", seedBase), c.st(evals)); err != nil {
			t.Fatal(err)
		}
		if err := st.Put("float-eval", c.st(1)); err != nil {
			t.Fatal(err)
		}
		a.Checkpoint = st
		samePoints(t, c.name, wantPts, mustSweep(t, a, filter, clean, seedBase))
		if got, err := a.EvalBackend(context.Background(), nil, "float-eval"); err != nil || got != wantAcc {
			t.Fatalf("%s: EvalBackend = %g, %v; want %g", c.name, got, err, wantAcc)
		}
		if v := a.Obs.Counter("sweep.resumed_jobs").Value(); v != 0 {
			t.Fatalf("%s: resumed %d jobs from an impossible checkpoint", c.name, v)
		}
	}
}

func TestAnalyzeGroupsAndLayersResumeFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	a := derived(t)
	st, _ := resumeStore(t, dir, a.Opts)
	a.Checkpoint = st
	ctx := context.Background()
	clean, err := a.CleanAccuracyCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := a.AnalyzeGroups(ctx, clean)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := a.AnalyzeLayers(ctx, groups, clean)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh analyzer over the same store must reproduce every step
	// without scheduling a single sweep.
	b := derived(t)
	b.Obs = obs.New(obs.Off, nil)
	st2, resumed := resumeStore(t, dir, b.Opts)
	if !resumed {
		t.Fatal("store not resumed")
	}
	b.Checkpoint = st2
	clean2, err := b.CleanAccuracyCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if clean2 != clean {
		t.Fatalf("resumed clean accuracy %g != %g", clean2, clean)
	}
	groups2, err := b.AnalyzeGroups(ctx, clean2)
	if err != nil {
		t.Fatal(err)
	}
	layers2, err := b.AnalyzeLayers(ctx, groups2, clean2)
	if err != nil {
		t.Fatal(err)
	}
	if v := b.Obs.Counter("sweep.sweeps").Value(); v != 0 {
		t.Fatalf("resumed analysis ran %d sweeps, want 0", v)
	}
	if len(groups2) != len(groups) || len(layers2) != len(layers) {
		t.Fatalf("resumed shapes differ: %d/%d groups, %d/%d layers",
			len(groups2), len(groups), len(layers2), len(layers))
	}
	for i := range groups {
		if groups2[i].Group != groups[i].Group || groups2[i].Resilient != groups[i].Resilient ||
			groups2[i].ToleratedNM != groups[i].ToleratedNM {
			t.Fatalf("group %d differs: %+v vs %+v", i, groups2[i], groups[i])
		}
		samePoints(t, "resumed group points", groups[i].Points, groups2[i].Points)
	}
	for i := range layers {
		if layers2[i].Layer != layers[i].Layer || layers2[i].Group != layers[i].Group ||
			layers2[i].Resilient != layers[i].Resilient || layers2[i].ToleratedNM != layers[i].ToleratedNM {
			t.Fatalf("layer %d differs: %+v vs %+v", i, layers2[i], layers[i])
		}
		samePoints(t, "resumed layer points", layers[i].Points, layers2[i].Points)
	}
}

func TestRefinedJSONRoundTrip(t *testing.T) {
	base := &Report{
		Network: "capsnet", Dataset: "mnist-like",
		CleanAccuracy: 0.95, ValidatedAccuracy: 0.80, MulEnergySaving: 0.4,
		Groups: []GroupResult{{Group: noise.Softmax, ToleratedNM: 0.5, Resilient: true}},
		Choices: []Choice{{
			Site:        noise.Site{Layer: "ClassCaps", Group: noise.Softmax},
			ComponentNM: 0.3, BudgetNM: 0.5,
		}},
	}
	base.Choices[0].Component.Name = "mul8u_Z"
	ref := RefineResult{
		Choices:  append([]Choice(nil), base.Choices...),
		Accuracy: 0.94,
		Met:      true,
		Steps: []RefineStep{{
			Round: 0, Site: base.Choices[0].Site,
			From: "mul8u_Z", To: "mul8u_Y", Accuracy: 0.94,
		}},
	}
	ref.Choices[0].Component.Name = "mul8u_Y"
	ref.Choices[0].ComponentNM = 0.1

	var b strings.Builder
	if err := WriteRefinedJSON(&b, base, ref); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ValidatedAccuracy float64 `json:"validated_accuracy"`
		Choices           []struct {
			Component string `json:"component"`
		} `json:"choices"`
		Refinement struct {
			Accuracy float64 `json:"accuracy"`
			Met      bool    `json:"met"`
			Steps    []struct {
				Round int    `json:"round"`
				Layer string `json:"layer"`
				From  string `json:"from"`
				To    string `json:"to"`
			} `json:"steps"`
		} `json:"refinement"`
	}
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	// The refined JSON must carry the POST-refinement design, not the
	// pre-refinement report (the bug this guards against).
	if decoded.ValidatedAccuracy != 0.94 {
		t.Fatalf("validated_accuracy = %g, want the refined 0.94", decoded.ValidatedAccuracy)
	}
	if len(decoded.Choices) != 1 || decoded.Choices[0].Component != "mul8u_Y" {
		t.Fatalf("choices = %+v, want the upgraded component", decoded.Choices)
	}
	if !decoded.Refinement.Met || decoded.Refinement.Accuracy != 0.94 {
		t.Fatalf("refinement = %+v", decoded.Refinement)
	}
	if len(decoded.Refinement.Steps) != 1 || decoded.Refinement.Steps[0].To != "mul8u_Y" {
		t.Fatalf("steps = %+v", decoded.Refinement.Steps)
	}

	// With no repair steps the trace must render as [] rather than null.
	var empty strings.Builder
	if err := WriteRefinedJSON(&empty, base, RefineResult{Choices: base.Choices, Accuracy: 0.8}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), `"steps": []`) {
		t.Fatalf("empty steps not rendered as []:\n%s", empty.String())
	}
}
