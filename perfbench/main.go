// Command perfbench is the repository's benchmark. It drives three timed
// workloads (sweep, validate, serve) through the public entry points of
// the analysis engine, the bit-accurate backends and the job service, and
// a fourth (train) that only traced runs time. It checks every output it
// produces and prints one JSON result as the last line of standard
// output.
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics and write a Chrome trace and a
// per-layer table under .bench_build/perfbench/out. README.md lists the
// workloads and what each metric is meant to judge.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

// set records a metric. A value that could not be measured (NaN, e.g. a
// latency when every job failed) is recorded as 0; such a run also
// reports correct=false.
func (m metrics) set(name string, v float64, unit string) {
	if !finite(v) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the benchmark's output contract: the last line of stdout.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// options are the command-line flags.
type options struct {
	root        string
	workload    string
	seed        uint64
	seconds     float64
	trace       int
	fillWeights string
	// Set by the benchmark on the processes it starts (see runParent).
	role    string // "setup" or "run"
	spawned int64  // wall-clock Unix ns at which the parent started this process
	weights string // weight cache directory
	machine string // the parent's machine header, JSON
	setups  string // comma-separated set-up times of the set-up-only processes
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.root, "root", ".", "checkout root (holds go.mod and .bench_build)")
	fs.StringVar(&o.workload, "workload", "", "workload: sweep, validate or serve")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.fillWeights, "fill-weights", "", "internal: train the weight cache into this directory and exit")
	fs.StringVar(&o.role, "role", "", "internal: setup or run, for a process the benchmark starts")
	fs.Int64Var(&o.spawned, "spawned", 0, "internal: Unix ns at which this process was started")
	fs.StringVar(&o.weights, "weights", "", "internal: weight cache directory")
	fs.StringVar(&o.machine, "machine", "", "internal: machine header JSON")
	fs.StringVar(&o.setups, "setups", "", "internal: set-up times of earlier processes, in seconds")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.fillWeights != "" {
		return o, nil
	}
	if _, ok := workloadByName(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q (valid: %s)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.role != "" && o.role != "setup" && o.role != "run" {
		return o, fmt.Errorf("unknown --role %q", o.role)
	}
	return o, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run, or one of the processes a run starts.
func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	switch {
	case o.fillWeights != "":
		return trainWeights(o.fillWeights)
	case o.role != "":
		return runChild(o, stdout)
	}
	return runParent(o, stdout)
}

// setupProcs is how many set-up-only processes an untraced run starts.
// With the run's own process they give setupProcs+1 cold set-ups, and
// setup_s is their median.
const setupProcs = 6

// runParent identifies the code, fills the weight cache if needed, and
// starts fresh processes for the run itself: setupProcs set-up-only ones
// (untraced runs), then the one that runs the timed phase. setup_s is the
// time from a process's start to its first timed operation, so every
// sample starts cold: work moved into package init() or into a cache kept
// in process memory counts toward each sample it affects. The parent
// writes the machine header and, if the run succeeded, its result line.
func runParent(o options, stdout io.Writer) error {
	b, err := newBench(o)
	if err != nil {
		return err
	}
	defer b.cleanup()
	if err := b.identify(); err != nil {
		return err
	}
	if err := b.ensureWeights(); err != nil {
		return err
	}
	hdr, err := json.Marshal(b.machine)
	if err != nil {
		return err
	}
	var setups []string
	if o.trace == 0 {
		for i := 0; i < setupProcs; i++ {
			out, err := b.spawn("setup", time.Minute)
			if err != nil {
				return fmt.Errorf("set-up process: %w", err)
			}
			setups = append(setups, strings.TrimSpace(string(out)))
		}
	}
	out, err := b.spawn("run", runLimit+10*time.Second,
		"--machine", string(hdr), "--setups", strings.Join(setups, ","))
	if err != nil {
		return fmt.Errorf("run process: %w", err)
	}
	_, err = fmt.Fprintf(stdout, "# machine %s\n%s", hdr, out)
	return err
}

// spawn runs this executable in the given role with the run's flags and
// returns its standard output. Its standard error passes through. The
// process is killed if it outlives limit or this process.
func (b *bench) spawn(role string, limit time.Duration, extra ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	o := b.opts
	args := append([]string{"--role", role, "--root", b.root, "--workload", o.workload,
		"--seed", strconv.FormatUint(o.seed, 10), "--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(o.trace), "--weights", b.weights}, extra...)
	args = append(args, "--spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Run()
	return out.Bytes(), err
}

// runChild is one process of a run: a set-up-only process prints its
// set-up time; the run process runs the workload and prints the result.
func runChild(o options, stdout io.Writer) error {
	b, err := newBench(o)
	if err != nil {
		return err
	}
	defer b.cleanup()
	// A hung job must not hold the run past its time limit: fail it
	// without printing a result.
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(2)
	})
	defer watchdog.Stop()
	w, _ := workloadByName(o.workload)
	if o.role == "setup" {
		inst, err := w.setup(b, nil)
		if err != nil {
			return fmt.Errorf("%s setup: %w", w.name, err)
		}
		secs := b.sinceSpawn()
		inst.close()
		_, err = fmt.Fprintf(stdout, "%.9f\n", secs)
		return err
	}
	var res result
	if o.trace == 1 {
		res, err = b.traced(w)
	} else {
		res, err = b.untraced(w)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runLimit bounds a run process.
const runLimit = 160 * time.Second

// sinceSpawn is the time in seconds since the parent started this
// process.
func (b *bench) sinceSpawn() float64 {
	return time.Since(time.Unix(0, b.opts.spawned)).Seconds()
}

// untraced sets the workload up, runs the timed phase, and reports the
// end-to-end metrics. setup_s is the median of this process's set-up
// and those of the set-up-only processes.
func (b *bench) untraced(w workload) (result, error) {
	inst, err := w.setup(b, nil)
	if err != nil {
		return result{}, fmt.Errorf("%s setup: %w", w.name, err)
	}
	setups := []float64{b.sinceSpawn()}
	for _, s := range strings.Split(b.opts.setups, ",") {
		if s == "" {
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return result{}, fmt.Errorf("set-up time %q: %w", s, err)
		}
		setups = append(setups, v)
	}
	steal0, total0 := cpuTicks()
	ps := inst.phase(b.duration(), nil)
	steal1, total1 := cpuTicks()
	inst.close()
	// Time the hypervisor gives this machine's CPUs to other guests slows
	// every metric; stating it lets a reader tell host load from code.
	fmt.Fprintf(os.Stderr, "perfbench: %.1f%% of CPU time was stolen by the host during the timed phase\n",
		100*(steal1-steal0)/math.Max(1, total1-total0))
	m := metrics{}
	m.set("setup_s", median(setups), "s")
	ps.endToEnd(m)
	m.set("peak_rss_mb", ps.peakRSSMB, "MB")
	writeMetrics(os.Stderr, m)
	return b.finish(ps, m), nil
}

// traced runs the workload untraced and then traced for half the timed
// phase each (their ratio is trace.overhead_ratio), runs one traced
// operation of every other workload so each of their layers is measured
// too, then the per-layer kernel suite. It reports every per-layer
// metric and writes the Chrome trace and the per-layer table.
func (b *bench) traced(w workload) (result, error) {
	tr := newTracer()
	inst, err := b.tracedSetup(w, tr)
	if err != nil {
		return result{}, err
	}
	half := b.duration() / 2
	plain := inst.phase(half, nil)
	root := tr.root("phase."+w.name, 0)
	traced := inst.phase(half, root)
	root.end()
	inst.close()

	m := metrics{}
	total := plain
	total.merge(traced)
	for k, v := range traced.layers {
		m[k] = v
	}
	base, with := plain.rate(w.rate), traced.rate(w.rate)
	m.set("trace.overhead_ratio", with/base, "ratio")
	for _, other := range workloads {
		if other.name == w.name {
			continue
		}
		oi, err := b.tracedSetup(other, tr)
		if err != nil {
			return result{}, err
		}
		root := tr.root("phase."+other.name, 0)
		ps := oi.phase(0, root)
		root.end()
		oi.close()
		total.merge(ps)
		for k, v := range ps.layers {
			m[k] = v
		}
	}
	setupLayerMetrics(m, tr, w.name)
	rows, err := b.layerSuite(m, tr)
	if err != nil {
		return result{}, err
	}
	if err := b.writeTraceOutputs(w.name, tr, rows, m); err != nil {
		return result{}, err
	}
	return b.finish(total, m), nil
}

// tracedSetup sets w up under a "setup.<workload>" span.
func (b *bench) tracedSetup(w workload, tr *tracer) (instance, error) {
	sp := tr.root("setup."+w.name, 0)
	inst, err := w.setup(b, sp)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	return inst, nil
}

// writeMetrics lists the metrics one per line, sorted by name.
func writeMetrics(w io.Writer, m metrics) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-44s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// finish folds a phase's counts into the result, logging each failed
// check to stderr.
func (b *bench) finish(ps phaseStats, m metrics) result {
	for _, f := range ps.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	return result{
		Correct:   ps.failed == 0 && ps.attempted > 0,
		Attempted: ps.attempted,
		Failed:    ps.failed,
		Metrics:   m,
	}
}

func (b *bench) duration() time.Duration {
	return time.Duration(b.opts.seconds * float64(time.Second))
}

// setupLayerMetrics reports the set-up steps of the run's own workload;
// a step the workload does not have (serve loads weights inside each
// job) is taken from the other workloads' set-ups in the same traced run.
func setupLayerMetrics(m metrics, tr *tracer, own string) {
	for _, step := range []string{"dataset", "weights_load", "lut_compile"} {
		ds := tr.durations("setup."+step, "setup."+own)
		if len(ds) == 0 {
			ds = tr.durations("setup."+step, "")
		}
		m.set("setup."+step+"_ms", median(ds), "ms")
	}
}
