package main

import (
	"context"
	"math"
	"strings"
	"time"

	"redcane/internal/caps"
	"redcane/internal/checkpoint"
	"redcane/internal/core"
	"redcane/internal/datasets"
	"redcane/internal/noise"
	"redcane/internal/obs"
)

// Sizes of one sweep job: methodology Steps 1–5 on DeepCaps over
// sweepEval test examples at every NM of sweepGrid, one noise trial.
const sweepEval = 64

// sweepGrid is a four-point subset of the paper's NM grid (core.PaperNMSweep)
// spanning its range, so one job is a few seconds on a 2-core machine.
var sweepGrid = []float64{0.2, 0.05, 0.01, 0}

// sweepThreshold is the tolerable accuracy drop. One job evaluates only
// sweepEval examples, where one example moves accuracy by 1.6 points, so a
// quick-mode threshold of 2 points would mark resilience by noise alone
// and the set of layers Steps 4–5 sweep would change from job to job.
const sweepThreshold = 0.1

type sweepInst struct {
	b    *bench
	net  *caps.Network
	data *datasets.Dataset
	jobs int // jobs run so far, so every job draws fresh noise
}

func setupSweep(b *bench, sp *span) (instance, error) {
	ds, err := b.dataset("cifar-like", 0, sweepEval, sp)
	if err != nil {
		return nil, err
	}
	net, err := b.loadNetwork("deepcaps-cifar-like", ds, sp)
	if err != nil {
		return nil, err
	}
	return &sweepInst{b: b, net: net, data: ds}, nil
}

func (s *sweepInst) close() {}

// sweepCounts accumulates what a traced phase's analyses did.
type sweepCounts struct {
	points   float64
	analysis time.Duration
}

func (s *sweepInst) phase(d time.Duration, parent *span) phaseStats {
	var o *obs.Obs
	if parent != nil {
		o = obs.New(obs.Off, nil)
		s.net.Obs = o
		defer func() { s.net.Obs = nil }()
	}
	var c sweepCounts
	ps := runOps(d, func() (float64, error) {
		s.jobs++
		return s.job(parent.child("job"), o, &c)
	})
	if parent != nil {
		ps.layers = sweepLayerMetrics(o.Metrics().Snapshot(), c, len(s.net.Layers))
	}
	return ps
}

// job runs Steps 1–5 with a fresh checkpoint directory, as the CLI does
// by default, and checks the outcome: the accuracy at NM=0 reproduces the
// clean accuracy, and both routing groups (softmax, logits update)
// tolerate more noise than the MAC outputs — the paper's headline
// ordering.
func (s *sweepInst) job(sp *span, o *obs.Obs, c *sweepCounts) (float64, error) {
	defer sp.end()
	ctx := context.Background()
	opts := core.Options{
		NMSweep:   sweepGrid,
		Trials:    1,
		Batch:     32,
		Threshold: sweepThreshold,
		Seed:      noise.StreamSeed(s.b.opts.seed, uint64(s.jobs)),
		MaxEval:   sweepEval,
		Workers:   s.b.nproc,
	}.WithDefaults()
	dir, err := s.b.tempDir("sweep")
	if err != nil {
		return 0, err
	}
	csp := sp.child("checkpoint.Open")
	st, _, err := checkpoint.Open(dir, "deepcaps-cifar-like-quick", s.b.opts.seed, opts.Fingerprint())
	csp.end()
	if err != nil {
		return 0, err
	}
	a := &core.Analyzer{Net: s.net, Data: s.data, Opts: opts, Obs: o, Checkpoint: st}

	csp = sp.child("core.Analyzer.CleanAccuracyCtx")
	clean, err := a.CleanAccuracyCtx(ctx)
	csp.end()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	csp = sp.child("core.Analyzer.AnalyzeGroups")
	groups, err := a.AnalyzeGroups(ctx, clean)
	csp.end()
	if err != nil {
		return 0, err
	}
	csp = sp.child("core.Analyzer.AnalyzeLayers")
	layers, err := a.AnalyzeLayers(ctx, groups, clean)
	csp.end()
	if err != nil {
		return 0, err
	}
	c.analysis += time.Since(t0)
	// The engine never evaluates an NM=0 point: it reports the clean
	// accuracy there. Evaluate it independently, through the injector
	// gate at NM=0, so a broken clean path or gate fails the check.
	csp = sp.child("caps.AccuracyExec.nm0")
	nm0, err := caps.AccuracyExec(ctx, s.net, s.data.TestX, s.data.TestY,
		noise.NewGaussian(0, 0, noise.All(), opts.Seed), caps.Float{}, opts.Batch, opts.Workers)
	csp.end()
	if err != nil {
		return 0, err
	}
	if err := checkSweep(clean, nm0, groups, layers); err != nil {
		return 0, err
	}
	// Only the nonzero magnitudes run through the network.
	points := float64(len(groups)+len(layers)) * float64(nonzero(opts.NMSweep))
	c.points += points
	return points * float64(opts.Trials) * sweepEval, nil
}

// nonzero counts the nonzero magnitudes of an NM grid.
func nonzero(nms []float64) int {
	n := 0
	for _, nm := range nms {
		if nm != 0 {
			n++
		}
	}
	return n
}

// checkSweep verifies a sweep's outcome (see job): the accuracy measured
// at NM=0 (nm0) and every sweep's NM=0 point equal the clean accuracy,
// and the routing groups lose less accuracy than the MAC outputs. The
// ordering compares each group's mean accuracy drop over the grid, which
// separates the groups far beyond the sampling noise of sweepEval
// examples.
func checkSweep(clean, nm0 float64, groups []core.GroupResult, layers []core.LayerResult) error {
	if err := checkf(nm0 == clean, "accuracy at NM=0 %g, clean %g", nm0, clean); err != nil {
		return err
	}
	drop := map[noise.Group]float64{}
	for _, g := range groups {
		if err := checkNoiseless(g.Group.String(), g.Points, clean); err != nil {
			return err
		}
		for _, p := range g.Points {
			drop[g.Group] -= p.Drop / float64(len(g.Points))
		}
	}
	for _, l := range layers {
		if err := checkNoiseless(l.Layer+"/"+l.Group.String(), l.Points, clean); err != nil {
			return err
		}
	}
	mac := drop[noise.MACOutputs]
	for _, g := range []noise.Group{noise.Softmax, noise.LogitsUpdate} {
		if err := checkf(drop[g] < mac, "%s loses %.3f accuracy on average over the grid, not less than MAC outputs (%.3f)",
			g, drop[g], mac); err != nil {
			return err
		}
	}
	return nil
}

// checkNoiseless checks that a sweep's NM=0 point reproduces the clean
// accuracy exactly.
func checkNoiseless(name string, pts []core.SweepPoint, clean float64) error {
	last := pts[len(pts)-1]
	return checkf(last.NM == 0 && last.Accuracy == clean,
		"%s: NM=%g accuracy %g, clean %g", name, last.NM, last.Accuracy, clean)
}

// sweepLayerMetrics derives the sweep engine's per-layer metrics from the
// program's own metrics registry.
func sweepLayerMetrics(snap obs.Snapshot, c sweepCounts, nLayers int) metrics {
	m := metrics{}
	m.set("core.sweep.points_per_s", c.points/c.analysis.Seconds(), "1/s")
	hits := float64(snap.Counters["sweep.prefix_cache.hits"])
	misses := float64(snap.Counters["sweep.prefix_cache.misses"])
	bypass := float64(snap.Counters["sweep.prefix_cache.bypass"])
	m.set("core.prefix_cache.hit_ratio", hits/math.Max(1, hits+misses+bypass), "ratio")
	busy, wall := snap.Gauges["sweep.workers.busy_ns"], snap.Gauges["sweep.workers.wall_ns"]
	workers := snap.Gauges["sweep.workers.count"]
	m.set("core.workers.utilization", busy/math.Max(1, wall*workers), "ratio")
	m.set("core.prefix_skip_ratio", prefixSkipRatio(snap, nLayers), "ratio")
	m.set("core.prefix_cache.retained_mb", snap.Gauges["sweep.prefix_cache.retained_bytes"]/(1<<20), "MB")
	return m
}

// prefixSkipRatio is the share of layer forwards that clean-prefix replay
// skipped: every suffix pass (caps.forward.suffix.<layer> timers) would
// have run all nLayers layers without replay, and ran only its suffix.
// The denominator is every layer forward run plus every one skipped.
func prefixSkipRatio(snap obs.Snapshot, nLayers int) float64 {
	var run, suffixRun, suffixPasses float64
	for name, t := range snap.Timers {
		rest, ok := strings.CutPrefix(name, "caps.forward.")
		if !ok {
			continue
		}
		run += float64(t.Count)
		if kind, _, _ := strings.Cut(rest, "."); kind == "suffix" {
			suffixRun += float64(t.Count)
			suffixPasses = math.Max(suffixPasses, float64(t.Count))
		}
	}
	skipped := suffixPasses*float64(nLayers) - suffixRun
	if run+skipped == 0 {
		return 0
	}
	return skipped / (run + skipped)
}
