package experiments

import (
	"strings"
	"testing"

	"redcane/internal/core"
	"redcane/internal/noise"
)

// goldenSweep is the fixture of the sweep-rendering golden tests: two
// groups over a three-point grid, the second one resilient. No training
// is involved, so the tests pin the text and CSV layout alone.
func goldenSweep() (Benchmark, float64, []core.GroupResult) {
	b := Benchmark{Arch: "capsnet", Dataset: "mnist-like"}
	groups := []core.GroupResult{
		{Group: noise.MACOutputs, Points: []core.SweepPoint{
			{NM: 0.5, Accuracy: 0.25, Drop: -0.65},
			{NM: 0.05, Accuracy: 0.8, Drop: -0.1},
			{NM: 0.005, Accuracy: 0.9, Drop: 0},
		}, ToleratedNM: 0.005},
		{Group: noise.Softmax, Points: []core.SweepPoint{
			{NM: 0.5, Accuracy: 0.85, Drop: -0.05},
			{NM: 0.05, Accuracy: 0.9, Drop: 0},
			{NM: 0.005, Accuracy: 0.9125, Drop: 0.0125},
		}, Resilient: true, ToleratedNM: 0.05},
	}
	return b, 0.9, groups
}

func TestGroupSweepGoldenRender(t *testing.T) {
	g := &GroupSweepResult{}
	g.Benchmark, g.Clean, g.Groups = goldenSweep()
	if got := g.Render(); got != wantGroupText {
		t.Errorf("Render mismatch\ngot:\n%s\nwant:\n%s", got, wantGroupText)
	}
	var csv strings.Builder
	if err := g.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if csv.String() != wantGroupCSV {
		t.Errorf("WriteCSV mismatch\ngot:\n%s\nwant:\n%s", csv.String(), wantGroupCSV)
	}
}

func TestFaultSweepGoldenRender(t *testing.T) {
	// Fields are assigned one by one so the test reads the same whether
	// the result holds its group-sweep fields directly or embedded.
	f := &FaultSweepResult{Spec: noise.Spec{Kind: noise.KindBitFlip, Bits: 8}}
	f.Benchmark, f.Clean, f.Groups = goldenSweep()
	if got := f.Render(); got != wantFaultText {
		t.Errorf("Render mismatch\ngot:\n%s\nwant:\n%s", got, wantFaultText)
	}
	var csv strings.Builder
	if err := f.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if csv.String() != wantFaultCSV {
		t.Errorf("WriteCSV mismatch\ngot:\n%s\nwant:\n%s", csv.String(), wantFaultCSV)
	}
}

const wantGroupText = `group-wise resilience — capsnet on mnist-like (clean 90.00%)
NM                 0.5    0.05   0.005
MAC outputs      -65.0   -10.0    +0.0  (accuracy drop %)
softmax           -5.0    +0.0    +1.2  (accuracy drop %)  [RESILIENT]

accuracy drop [%] vs noise magnitude
     1.25 |        o........o|
    -4.77 |o.......     .... |
   -10.80 |        *....     |
   -16.82 |                  |
   -22.84 |       .          |
   -28.86 |      .           |
   -34.89 |     .            |
   -40.91 |    .             |
   -46.93 |   .              |
   -52.95 |  .               |
   -58.98 | .                |
   -65.00 |*                 |
          +------------------+
           0.5     0.05     0.
           x: NM (descending)
           * MAC outputs
           o softmax
`

const wantGroupCSV = `arch,dataset,group,nm,accuracy,drop
capsnet,mnist-like,MAC outputs,0.5,0.25,-0.65
capsnet,mnist-like,MAC outputs,0.05,0.8,-0.1
capsnet,mnist-like,MAC outputs,0.005,0.9,0
capsnet,mnist-like,softmax,0.5,0.85,-0.05
capsnet,mnist-like,softmax,0.05,0.9,0
capsnet,mnist-like,softmax,0.005,0.9125,0.0125
`

const wantFaultText = `fault campaign [bit-flip/8] — capsnet on mnist-like (clean 90.00%)
P(flip)            0.5    0.05   0.005
MAC outputs      -65.0   -10.0    +0.0  (accuracy drop %)
softmax           -5.0    +0.0    +1.2  (accuracy drop %)  [RESILIENT]

accuracy drop [%] vs P(flip) (bit-flip/8)
     1.25 |        o........o|
    -4.77 |o.......     .... |
   -10.80 |        *....     |
   -16.82 |                  |
   -22.84 |       .          |
   -28.86 |      .           |
   -34.89 |     .            |
   -40.91 |    .             |
   -46.93 |   .              |
   -52.95 |  .               |
   -58.98 | .                |
   -65.00 |*                 |
          +------------------+
           0.5     0.05     0.
           x: P(flip) (descending)
           * MAC outputs
           o softmax
`

const wantFaultCSV = `arch,dataset,kind,group,severity,accuracy,drop
capsnet,mnist-like,bit-flip/8,MAC outputs,0.5,0.25,-0.65
capsnet,mnist-like,bit-flip/8,MAC outputs,0.05,0.8,-0.1
capsnet,mnist-like,bit-flip/8,MAC outputs,0.005,0.9,0
capsnet,mnist-like,bit-flip/8,softmax,0.5,0.85,-0.05
capsnet,mnist-like,bit-flip/8,softmax,0.05,0.9,0
capsnet,mnist-like,bit-flip/8,softmax,0.005,0.9125,0.0125
`
