package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"redcane/internal/core"
	"redcane/internal/noise"
)

// TestMain lets the test binary stand in for the benchmark binary in the
// processes a run starts: the weight-cache fill and the set-up and run
// processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "--fill-weights" || os.Args[1] == "--role") {
		if err := run(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[n-1-i] = float64(i + 1) // descending, so the picker must sort
		}
		return vs
	}
	cases := []struct {
		n         int
		pct, want float64
	}{
		{n: 1, pct: 50, want: 1},
		{n: 19, pct: 50, want: 10}, // too few samples: the median
		{n: 20, pct: 50, want: 10}, // 10 samples above the 10th
		{n: 40, pct: 75, want: 30},
		{n: 100, pct: 90, want: 90},
		{n: 1000, pct: 99, want: 990},
	}
	for _, c := range cases {
		pct, v := tailPercentile(seq(c.n))
		if pct != c.pct || v != c.want {
			t.Errorf("n=%d: got p%g = %g, want p%g = %g", c.n, pct, v, c.pct, c.want)
		}
		above := 0
		for _, x := range seq(c.n) {
			if x > v {
				above++
			}
		}
		if c.n >= 2*tailBeyond && above != tailBeyond {
			t.Errorf("n=%d: %d samples above the tail, want %d", c.n, above, tailBeyond)
		}
	}
	if _, v := tailPercentile(nil); !math.IsNaN(v) {
		t.Errorf("no samples: got %g, want NaN", v)
	}
}

func TestTraceOnlyWorkloadIsNotRunnable(t *testing.T) {
	if _, err := parseFlags([]string{"--workload", "train"}); err == nil {
		t.Error("--workload train accepted")
	}
	if _, err := parseFlags([]string{"--workload", "serve"}); err != nil {
		t.Errorf("--workload serve rejected: %v", err)
	}
}

func TestCheckServeFlagsCorruptOutput(t *testing.T) {
	ref := []byte("arch,dataset,group,nm,accuracy,drop\ncapsnet,mnist-like,MAC outputs,0.1,0.95,-0.03\n")
	if err := checkServe("j1", "done", "job done", ref, ref); err != nil {
		t.Fatalf("identical CSV rejected: %v", err)
	}
	for i := range ref {
		bad := bytes.Clone(ref)
		bad[i] ^= 0x01
		if checkServe("j1", "done", "job done", bad, ref) == nil {
			t.Fatalf("byte %d flipped: not reported", i)
		}
	}
	if checkServe("j1", "done", "job started", ref, ref) == nil {
		t.Error("event stream not ending in \"job done\": not reported")
	}
	if checkServe("j1", "failed", "job done", ref, ref) == nil {
		t.Error("failed job: not reported")
	}
}

func TestCheckSweep(t *testing.T) {
	curve := func(drops ...float64) []core.SweepPoint {
		nms := []float64{0.2, 0.05, 0.01, 0}
		pts := make([]core.SweepPoint, len(nms))
		for i, nm := range nms {
			pts[i] = core.SweepPoint{NM: nm, Accuracy: 0.6 + drops[i], Drop: drops[i]}
		}
		return pts
	}
	groups := []core.GroupResult{
		{Group: noise.MACOutputs, Points: curve(-0.5, -0.3, -0.05, 0)},
		{Group: noise.Activations, Points: curve(-0.5, -0.2, 0, 0)},
		{Group: noise.Softmax, Points: curve(-0.3, 0, 0, 0)},
		{Group: noise.LogitsUpdate, Points: curve(-0.3, -0.02, 0, 0)},
	}
	layers := []core.LayerResult{{Layer: "Conv2D", Group: noise.MACOutputs, Points: curve(-0.4, -0.1, 0, 0)}}
	if err := checkSweep(0.6, 0.6, groups, layers); err != nil {
		t.Fatalf("paper ordering rejected: %v", err)
	}
	if checkSweep(0.6, 0.59, groups, layers) == nil {
		t.Error("accuracy at NM=0 off the clean accuracy: not reported")
	}
	swapped := append([]core.GroupResult(nil), groups...)
	swapped[2].Points = curve(-0.6, -0.4, -0.1, 0)
	if checkSweep(0.6, 0.6, swapped, layers) == nil {
		t.Error("softmax less resilient than MAC outputs: not reported")
	}
	noisy := []core.LayerResult{{Layer: "Conv2D", Group: noise.MACOutputs, Points: curve(-0.4, -0.1, 0, -0.01)}}
	if checkSweep(0.6, 0.6, groups, noisy) == nil {
		t.Error("NM=0 point off the clean accuracy: not reported")
	}
}

func TestCheckValidate(t *testing.T) {
	if err := checkValidate(0.6, 0.58, 0.4, 0.58, 0.4); err != nil {
		t.Fatalf("good job rejected: %v", err)
	}
	if checkValidate(0.6, 0.4, 0.4, 0.4, 0.4) == nil {
		t.Error("quant-exact far from float: not reported")
	}
	if checkValidate(0.6, 0.58, 0.41, 0.58, 0.4) == nil {
		t.Error("accuracy differing from the first job: not reported")
	}
}

func TestRunOpsCountsFailures(t *testing.T) {
	ps := runOps(0, func() (float64, error) { return 5, checkf(false, "bad") })
	if ps.attempted != 1 || ps.failed != 1 || ps.examples != 0 || len(ps.latencies) != 0 {
		t.Fatalf("failed job: got %+v", ps)
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{id: 1, name: "root", start: at(0), dur: 100 * time.Millisecond},
		{id: 2, parent: 1, name: "a", start: at(10), dur: 30 * time.Millisecond},
		{id: 3, parent: 1, name: "b", start: at(20), dur: 30 * time.Millisecond}, // overlaps a
		{id: 4, parent: 1, name: "c", start: at(90), dur: 20 * time.Millisecond}, // runs past root
		{id: 5, parent: 2, name: "a1", start: at(15), dur: 5 * time.Millisecond},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50 * time.Millisecond, 2: 25 * time.Millisecond, 3: 30 * time.Millisecond,
		4: 20 * time.Millisecond, 5: 5 * time.Millisecond}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// runResult runs the benchmark in-process on this checkout and returns
// its result line.
func runResult(t *testing.T, args ...string) result {
	t.Helper()
	var out bytes.Buffer
	if err := run(append([]string{"--root", ".."}, args...), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEmittedMetricsMatchBenchmarkJSON runs every workload untraced and
// one traced run, each as short as possible, and checks that they emit
// exactly the metrics BENCHMARK.json declares, with the declared units.
// The first run on a fresh checkout trains the weight cache.
func TestEmittedMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark end to end")
	}
	doc := readBenchmarkJSON(t)
	check := func(label string, got metrics, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: emits %d metrics, BENCHMARK.json declares %d", label, len(got), len(want))
		}
		for _, w := range want {
			m, ok := got[w.Name]
			if !ok {
				t.Errorf("%s: %s declared but not emitted", label, w.Name)
			} else if m.Unit != w.Unit {
				t.Errorf("%s: %s unit %q, declared %q", label, w.Name, m.Unit, w.Unit)
			}
		}
	}
	for _, w := range workloads {
		if w.traceOnly {
			continue
		}
		res := runResult(t, "--workload", w.name, "--seed", "3", "--seconds", "0.001", "--trace", "0")
		if !res.Correct {
			t.Errorf("%s: run not correct: %+v", w.name, res)
		}
		check(w.name, res.Metrics, doc.EndToEnd)
	}
	res := runResult(t, "--workload", "validate", "--seed", "3", "--seconds", "0.001", "--trace", "1")
	if !res.Correct {
		t.Errorf("traced: run not correct: %+v", res)
	}
	check("traced", res.Metrics, doc.PerLayer)
}

// TestCorruptedServeCSVIsAFailedJob serves real jobs against a reference
// CSV with one flipped byte: every job must count as failed.
func TestCorruptedServeCSVIsAFailedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and runs jobs")
	}
	b, err := newBench(options{root: "..", workload: "serve", seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer b.cleanup()
	if err := b.identify(); err != nil {
		t.Fatal(err)
	}
	if err := b.ensureWeights(); err != nil {
		t.Fatal(err)
	}
	inst, err := setupServe(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	s := inst.(*serveInst)
	if ps := s.phase(0, nil); ps.failed != 0 || ps.attempted == 0 {
		t.Fatalf("clean phase: %d of %d jobs failed: %v", ps.failed, ps.attempted, ps.failures)
	}
	// Every noisy point of the served sweep evaluates the same examples,
	// and the NM=0 rows evaluate none.
	noisy := 0
	for _, row := range strings.Split(strings.TrimSpace(string(s.ref)), "\n")[1:] {
		if f := strings.Split(row, ","); f[3] != "0" {
			noisy++
		}
	}
	if perPoint := s.examples / float64(noisy); s.examples <= 0 || perPoint != math.Trunc(perPoint) {
		t.Fatalf("%g examples over %d noisy points", s.examples, noisy)
	}
	s.ref[len(s.ref)/2] ^= 0x01
	ps := s.phase(0, nil)
	if ps.attempted == 0 || ps.failed != ps.attempted {
		t.Fatalf("corrupted reference: %d of %d jobs failed", ps.failed, ps.attempted)
	}
}
