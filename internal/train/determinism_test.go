package train_test

import (
	"context"
	"runtime"
	"testing"

	"redcane/internal/datasets"
	"redcane/internal/models"
	"redcane/internal/tensor"
	"redcane/internal/train"
)

// TestFitSameSeedSameWeightsAnyGOMAXPROCS pins "same train seed, same
// weights": training runs on the row-parallel caps and tensor kernels,
// whose row split follows GOMAXPROCS, so a run at 1 and at 3 procs must
// produce bit-identical weights.
func TestFitSameSeedSameWeightsAnyGOMAXPROCS(t *testing.T) {
	ds := datasets.MNISTLike(64, 16, 42)
	spec := models.CapsNet([]int{ds.Channels, ds.H, ds.W}, ds.Classes())
	fit := func(procs int) map[string]*tensor.Tensor {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m, err := models.BuildTrainer(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		sz := ds.Channels * ds.H * ds.W
		train.LSUVInit(m, tensor.NewFrom(ds.TrainX.Data[:16*sz], 16, ds.Channels, ds.H, ds.W), 0.5)
		if _, err := train.FitCtx(context.Background(), m, ds, train.Config{
			Epochs: 1, BatchSize: 16, LR: 1.5e-3, Seed: 3, GradClip: 5,
		}); err != nil {
			t.Fatal(err)
		}
		return m.Net.Params()
	}
	one, three := fit(1), fit(3)
	for name, w := range one {
		for i, v := range w.Data {
			if three[name].Data[i] != v {
				t.Fatalf("%s[%d] = %v at GOMAXPROCS 1, %v at 3", name, i, v, three[name].Data[i])
			}
		}
	}
}
