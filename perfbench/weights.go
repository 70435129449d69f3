package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"redcane/internal/caps"
	"redcane/internal/datasets"
	"redcane/internal/experiments"
	"redcane/internal/models"
	"redcane/internal/params"
)

// weightSeed is the seed the cached weights are trained from. Every
// workload input (evaluation data, noise, sweep grids, job specs, training
// initialisation) comes from --seed; the weights are the program state a
// user keeps in the weight cache, trained once per source tree. Training
// DeepCaps for each seed would cost about 20 s a run on a 2-core machine.
const weightSeed = 1

// cachedBenchmarks are the trained networks the workloads load.
var cachedBenchmarks = []string{"deepcaps-cifar-like", "capsnet-mnist-like"}

// weightFile is the cache file experiments.Runner writes for a benchmark
// trained in quick mode with the given seed.
func weightFile(dir, key string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-quick-seed%d.gob", key, seed))
}

// ensureWeights trains the weight cache of this source tree if it is
// missing. Training runs in a child process so its memory never counts
// toward this run's peak_rss_mb.
func (b *bench) ensureWeights() error {
	ok := true
	for _, key := range cachedBenchmarks {
		if _, err := os.Stat(weightFile(b.weights, key, weightSeed)); err != nil {
			ok = false
		}
	}
	if ok {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: training the weight cache (first run of this source tree)")
	cmd := exec.Command(exe, "--fill-weights", b.weights)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("train weight cache: %w", err)
	}
	return nil
}

// trainWeights trains every cached benchmark in quick mode into a
// temporary directory and renames it to dir, so a cut-short fill never
// leaves a partial cache behind.
func trainWeights(dir string) error {
	tmp := fmt.Sprintf("%s.tmp-%d", dir, os.Getpid())
	defer os.RemoveAll(tmp)
	r := experiments.NewRunner(experiments.Config{Dir: tmp, Quick: true, Seed: weightSeed})
	for _, key := range cachedBenchmarks {
		bm, err := experiments.FindBenchmark(key)
		if err != nil {
			return err
		}
		t, err := r.Trained(bm)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: trained %s, test accuracy %.1f%%\n", key, 100*t.TestAcc)
	}
	os.RemoveAll(dir)
	return os.Rename(tmp, dir)
}

// loadNetwork builds the benchmark's inference network for the dataset's
// shape and loads the cached weights into it.
func (b *bench) loadNetwork(key string, ds *datasets.Dataset, sp *span) (*caps.Network, error) {
	bm, err := experiments.FindBenchmark(key)
	if err != nil {
		return nil, err
	}
	shape := []int{ds.Channels, ds.H, ds.W}
	spec := models.CapsNet(shape, ds.Classes())
	if bm.Arch == "deepcaps" {
		spec = models.DeepCaps(shape, ds.Classes())
	}
	defer sp.child("setup.weights_load").end()
	net, err := models.BuildInference(spec, weightSeed)
	if err != nil {
		return nil, err
	}
	store, err := params.Load(weightFile(b.weights, key, weightSeed))
	if err != nil {
		return nil, err
	}
	if err := store.LoadInto(net.Params()); err != nil {
		return nil, err
	}
	return net, nil
}

// dataset synthesizes the named dataset's splits from the run's seed.
func (b *bench) dataset(name string, trainN, testN int, sp *span) (*datasets.Dataset, error) {
	defer sp.child("setup.dataset").end()
	return datasets.ByName(name, trainN, testN, b.opts.seed)
}
