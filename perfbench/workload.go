package main

import (
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// rate names the throughput trace.overhead_ratio compares:
	// "examples" or "jobs".
	rate string
	// setup builds a ready-to-run instance; it is what setup_s times.
	setup func(b *bench, sp *span) (instance, error)
	// traceOnly workloads run one job in every traced run, for their
	// per-layer metrics, and cannot be run on their own (see README.md).
	traceOnly bool
}

// instance is a set-up workload.
type instance interface {
	// phase runs operations back to back for at least d (at least one
	// operation). A non-nil parent traces the phase: spans around every
	// call into a layer, the program's own metrics switched on, and the
	// phase's per-layer metrics returned in phaseStats.layers.
	phase(d time.Duration, parent *span) phaseStats
	close()
}

var workloads = []workload{
	{name: "sweep", rate: "examples", setup: setupSweep},
	{name: "validate", rate: "examples", setup: setupValidate},
	{name: "serve", rate: "jobs", setup: setupServe},
	{name: "train", rate: "examples", setup: setupTrain, traceOnly: true},
}

// workloadByName finds a workload that can be run on its own.
func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name && !w.traceOnly {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		if !w.traceOnly {
			names = append(names, w.name)
		}
	}
	return strings.Join(names, ", ")
}

// phaseStats is what one timed phase did. A job is one operation: an
// analysis, an evaluation, a training run, or a served job.
type phaseStats struct {
	attempted, failed int
	examples          float64 // examples pushed through the network by completed jobs
	elapsed           time.Duration
	latencies         []float64 // seconds, one per completed job
	failures          []string
	layers            metrics // traced phases only
	// peakRSSMB is the process's peak resident memory once the phase's
	// first job is done (see runOps) or, for a server, at its end.
	peakRSSMB float64
}

// merge adds q's counts (not its metrics) to p.
func (p *phaseStats) merge(q phaseStats) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.failures = append(p.failures, q.failures...)
}

// rate is the phase's examples or jobs per second.
func (p phaseStats) rate(kind string) float64 {
	s := p.elapsed.Seconds()
	if kind == "jobs" {
		return float64(p.attempted-p.failed) / s
	}
	return p.examples / s
}

// endToEnd adds the phase's throughput and latency metrics to m and
// states the tail percentile and sample count on stderr.
func (p phaseStats) endToEnd(m metrics) {
	m.set("examples_per_s", p.rate("examples"), "1/s")
	m.set("jobs_per_s", p.rate("jobs"), "1/s")
	m.set("job_latency_p50_s", median(p.latencies), "s")
	pct, tail := tailPercentile(p.latencies)
	m.set("job_latency_tail_s", tail, "s")
	fmt.Fprintf(os.Stderr, "perfbench: job_latency_tail_s is p%.1f of %d jobs (%d attempted, %d failed)\n",
		pct, len(p.latencies), p.attempted, p.failed)
}

// runOps runs op back to back until d has passed (at least once). Each
// call is one job; an error is a failed job and its examples are not
// counted. Peak memory is read after the first job: a user's process
// sets up and runs one analysis, evaluation or training run, and the
// later repetitions only add garbage whose collection timing would make
// the peak depend on how many jobs fit into the phase.
func runOps(d time.Duration, op func() (examples float64, err error)) phaseStats {
	var ps phaseStats
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		t0 := time.Now()
		ex, err := op()
		lat := time.Since(t0).Seconds()
		if i == 0 {
			ps.peakRSSMB = peakRSSMB()
		}
		ps.attempted++
		if err != nil {
			ps.failed++
			ps.failures = append(ps.failures, fmt.Sprintf("job %d (%.2fs): %v", i, lat, err))
			continue
		}
		ps.examples += ex
		ps.latencies = append(ps.latencies, lat)
	}
	ps.elapsed = time.Since(start)
	return ps
}

// checkf returns a check failure when ok is false.
func checkf(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf("check: "+format, args...)
}

// finite reports whether v is a finite number.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
