package approx

import (
	"math"
	"sort"
	"testing"

	"redcane/internal/tensor"
)

func TestCharacterizeExactIsZeroError(t *testing.T) {
	p := Characterize(Exact{}, Uniform{}, 9, 5000, 1)
	if p.NM != 0 || p.NA != 0 {
		t.Fatalf("exact multiplier NM=%g NA=%g", p.NM, p.NA)
	}
}

func TestCharacterizeDeterministic(t *testing.T) {
	a := Characterize(BrokenCarry{Depth: 7}, Uniform{}, 9, 2000, 42)
	b := Characterize(BrokenCarry{Depth: 7}, Uniform{}, 9, 2000, 42)
	if a.NM != b.NM || a.NA != b.NA {
		t.Fatal("characterization must be deterministic for a fixed seed")
	}
}

func TestErrorStdGrowsWithChainLength(t *testing.T) {
	// For near-independent per-MAC errors the accumulated std grows like
	// sqrt(k); the paper's Fig. 6 shows exactly this widening from 1 to 9
	// to 81 MACs. We assert monotone growth with a generous sqrt-band.
	m := BrokenCarry{Depth: 7, Compensate: true}
	var stds []float64
	for _, k := range []int{1, 9, 81} {
		p := Characterize(m, Uniform{}, k, 20000, 7)
		stds = append(stds, p.Fit.Std)
	}
	if !(stds[0] < stds[1] && stds[1] < stds[2]) {
		t.Fatalf("error std not increasing with chain length: %v", stds)
	}
	ratio91 := stds[1] / stds[0]
	if ratio91 < 2 || ratio91 > 4.5 { // sqrt(9)=3 with tolerance
		t.Fatalf("9-MAC/1-MAC std ratio = %g, want ≈3", ratio91)
	}
	ratio819 := stds[2] / stds[1]
	if ratio819 < 2 || ratio819 > 4.5 { // sqrt(81/9)=3
		t.Fatalf("81-MAC/9-MAC std ratio = %g, want ≈3", ratio819)
	}
}

func TestAccumulatedErrorIsGaussianLike(t *testing.T) {
	// CLT: even strongly non-Gaussian single-multiplier errors become
	// Gaussian-like after 81 accumulations — the paper's key modeling
	// observation (31 of 35 components Gaussian-like).
	for _, c := range Library()[1:] {
		p := Characterize(c.Model, Uniform{}, 81, 20000, 3)
		if p.Fit.KS > 0.08 {
			t.Errorf("%s: 81-MAC error not Gaussian-like (KS=%g)", c.Name, p.Fit.KS)
		}
	}
}

func TestNMOrderingRoughlyTracksPower(t *testing.T) {
	// The cheapest components must be noisier than the most accurate
	// ones. We check the coarse ordering between the two ends of the
	// library rather than strict monotonicity (the paper's Table IV is
	// not strictly monotone either).
	lib := Library()
	first := Characterize(lib[1].Model, Uniform{}, 1, 20000, 5) // 14VP
	last := Characterize(lib[len(lib)-1].Model, Uniform{}, 1, 20000, 5)
	if first.NM >= last.NM {
		t.Fatalf("NM of most accurate (%g) >= cheapest (%g)", first.NM, last.NM)
	}
}

func TestMeasuredNMWithinBandOfPaper(t *testing.T) {
	// Each behavioral stand-in must land within a factor of 3 of the
	// paper's modeled NM for its component (or within 5e-4 absolute for
	// the nearly-exact ones).
	for _, c := range Library() {
		p := Characterize(c.Model, Uniform{}, 1, 30000, 11)
		if c.PaperNM == 0 {
			if p.NM != 0 {
				t.Errorf("%s: want exact, got NM=%g", c.Name, p.NM)
			}
			continue
		}
		if math.Abs(p.NM-c.PaperNM) < 5e-4 {
			continue
		}
		ratio := p.NM / c.PaperNM
		if ratio < 1.0/3 || ratio > 3 {
			t.Errorf("%s: measured NM %g vs paper %g (ratio %g)", c.Name, p.NM, c.PaperNM, ratio)
		}
	}
}

func TestEmpiricalDistSamplesFromPools(t *testing.T) {
	d := Empirical{Label: "test", A: []uint8{5}, B: []uint8{7}}
	rng := tensor.NewRNG(1)
	a, b := d.Sample(rng)
	if a != 5 || b != 7 {
		t.Fatalf("Sample = %d, %d", a, b)
	}
	if d.Name() != "test" {
		t.Fatalf("Name = %q", d.Name())
	}
}

func TestCharacterizeComponentProducesBothColumns(t *testing.T) {
	c, err := ByName("mul8u_NGR")
	if err != nil {
		t.Fatal(err)
	}
	real := Empirical{Label: "lowvals", A: []uint8{0, 1, 2, 3, 10, 20}, B: []uint8{1, 2, 3}}
	modeled, measured := CharacterizeComponent(c, real, 9, 5000, 2)
	if modeled.Dist != "uniform" || measured.Dist != "lowvals" {
		t.Fatalf("dists = %q, %q", modeled.Dist, measured.Dist)
	}
	if modeled.Component != "mul8u_NGR" || measured.Component != "mul8u_NGR" {
		t.Fatalf("component names = %q, %q", modeled.Component, measured.Component)
	}
}

func TestCharacterizeInvalidArgsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Characterize(Exact{}, Uniform{}, 0, 100, 1)
}

func TestHistogramCoversAllSamples(t *testing.T) {
	p := Characterize(DRUM{K: 4}, Uniform{}, 1, 5000, 9)
	if p.Hist.N != 5000 {
		t.Fatalf("histogram N = %d", p.Hist.N)
	}
	total := 0
	for _, c := range p.Hist.Counts {
		total += c
	}
	if total != 5000 {
		t.Fatalf("histogram counts sum to %d", total)
	}
}

func TestRegistryLookups(t *testing.T) {
	if len(Library()) != 15 {
		t.Fatalf("library size = %d, want 15 (Table IV)", len(Library()))
	}
	if Accurate().Name != "mul8u_1JFF" {
		t.Fatalf("accurate component = %s", Accurate().Name)
	}
	if _, err := ByName("mul8u_NOPE"); err == nil {
		t.Fatal("lookup of unknown component succeeded")
	}
	// Sorted by power, the accurate multiplier costs the most; Library
	// returns a copy, so sorting it leaves the registry as it was.
	sorted := Library()
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].PowerUW < sorted[j].PowerUW })
	if sorted[len(sorted)-1].Name != Accurate().Name || Library()[0].Name != Accurate().Name {
		t.Fatalf("most power-hungry = %s, registry head = %s; want %s for both",
			sorted[len(sorted)-1].Name, Library()[0].Name, Accurate().Name)
	}
}

func TestPowerAreaReductionsMatchPaperHeadline(t *testing.T) {
	ngr, err := ByName("mul8u_NGR")
	if err != nil {
		t.Fatal(err)
	}
	// Paper: NGR saves 29 % power, 28 % area.
	if r := ngr.PowerReduction(); math.Abs(r-0.29) > 0.02 {
		t.Fatalf("NGR power reduction = %g", r)
	}
	if r := ngr.AreaReduction(); math.Abs(r-0.28) > 0.02 {
		t.Fatalf("NGR area reduction = %g", r)
	}
	if Accurate().PowerReduction() != 0 {
		t.Fatal("accurate component must have zero reduction")
	}
}

func TestLibraryIsCopy(t *testing.T) {
	l := Library()
	l[0].Name = "mutated"
	if Library()[0].Name != "mul8u_1JFF" {
		t.Fatal("Library must return a copy")
	}
}
