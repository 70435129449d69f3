package main

import (
	"context"
	"strings"
	"sync"
	"time"

	"redcane/internal/datasets"
	"redcane/internal/models"
	"redcane/internal/noise"
	"redcane/internal/tensor"
	"redcane/internal/train"
)

// One train job is a cold quick-mode training run of CapsNet on the
// MNIST-like dataset: trainN examples, trainEpochs epochs, batch 32.
const (
	trainN      = 500
	trainTestN  = 150
	trainEpochs = 2
)

// trainFloor is the test accuracy a two-epoch run must reach; the
// MNIST-like classes are well separated, and chance is 10%.
const trainFloor = 0.5

type trainInst struct {
	b    *bench
	data *datasets.Dataset
	spec models.Spec
	jobs int
}

func setupTrain(b *bench, sp *span) (instance, error) {
	ds, err := b.dataset("mnist-like", trainN, trainTestN, sp)
	if err != nil {
		return nil, err
	}
	spec := models.CapsNet([]int{ds.Channels, ds.H, ds.W}, ds.Classes())
	return &trainInst{b: b, data: ds, spec: spec}, nil
}

func (t *trainInst) close() {}

func (t *trainInst) phase(d time.Duration, parent *span) phaseStats {
	var epochs []float64
	ps := runOps(d, func() (float64, error) {
		t.jobs++
		return t.job(parent.child("job"), &epochs)
	})
	if parent != nil {
		ps.layers = metrics{}
		lsuv := median(parent.tracer().durations("train.LSUVInit", "phase.train"))
		ps.layers.set("train.lsuv_s", lsuv/1e3, "s")
		ps.layers.set("train.epoch_s", median(epochs), "s")
	}
	return ps
}

// epochClock timestamps the per-epoch lines train.FitCtx logs, which
// gives epoch durations without the final evaluation FitCtx also runs.
type epochClock struct {
	mu    sync.Mutex
	marks []time.Time
}

func (c *epochClock) Write(p []byte) (int, error) {
	if strings.HasPrefix(string(p), "epoch ") {
		c.mu.Lock()
		c.marks = append(c.marks, time.Now())
		c.mu.Unlock()
	}
	return len(p), nil
}

// job trains a fresh model (initialisation drawn from the seed and the
// job number) and checks that the loss is finite and the test accuracy
// reaches trainFloor.
func (t *trainInst) job(sp *span, epochs *[]float64) (float64, error) {
	defer sp.end()
	seed := noise.StreamSeed(t.b.opts.seed, uint64(t.jobs))
	csp := sp.child("models.BuildTrainer")
	m, err := models.BuildTrainer(t.spec, seed)
	csp.end()
	if err != nil {
		return 0, err
	}
	ds := t.data
	sz := ds.Channels * ds.H * ds.W
	calib := tensor.NewFrom(ds.TrainX.Data[:32*sz], 32, ds.Channels, ds.H, ds.W)
	csp = sp.child("train.LSUVInit")
	train.LSUVInit(m, calib, 0.5)
	csp.end()
	clock := &epochClock{}
	csp = sp.child("train.FitCtx")
	start := time.Now()
	res, err := train.FitCtx(context.Background(), m, ds, train.Config{
		Epochs: trainEpochs, BatchSize: 32, LR: 1.5e-3, Seed: seed + 1, GradClip: 5, Log: clock,
	})
	csp.end()
	if err != nil {
		return 0, err
	}
	prev := start
	for _, mark := range clock.marks {
		*epochs = append(*epochs, mark.Sub(prev).Seconds())
		prev = mark
	}
	if err := checkf(finite(res.FinalLoss), "final loss %g is not finite", res.FinalLoss); err != nil {
		return 0, err
	}
	if err := checkf(res.TestAccuracy >= trainFloor, "test accuracy %g below %g", res.TestAccuracy, trainFloor); err != nil {
		return 0, err
	}
	return float64(trainEpochs * trainN), nil
}
