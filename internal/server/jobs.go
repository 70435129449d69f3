package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"

	"redcane/internal/core"
	"redcane/internal/experiments"
	"redcane/internal/noise"
	"redcane/internal/obs"
)

// The job kinds the service runs. Each maps onto one of the job-shaped
// experiment entry points, so an HTTP job produces byte-identical
// artifacts to the corresponding CLI invocation with the same seed and
// options fingerprint.
const (
	KindGroupSweep  = "group-sweep" // methodology Steps 1–3 (Fig. 9/12)
	KindLayerSweep  = "layer-sweep" // Steps 1–5 (Fig. 10)
	KindMethodology = "methodology" // the full 6-step design run
	KindValidate    = "validate"    // bit-accurate error-model validation
	KindFaultSweep  = "fault-sweep" // group-wise fault campaign (bit flips, stuck-at)
)

// JobKinds lists the accepted job kinds.
var JobKinds = []string{KindGroupSweep, KindLayerSweep, KindMethodology, KindValidate, KindFaultSweep}

// JobSpec is the POST /v1/jobs request body: what to analyze and under
// which results-affecting knobs. Scheduling knobs (workers, queue) are
// server-wide and deliberately absent, mirroring how Options.Fingerprint
// excludes them.
type JobSpec struct {
	// Kind selects the analysis: group-sweep, layer-sweep, methodology,
	// or validate.
	Kind string `json:"kind"`
	// Benchmark is the (architecture, dataset) key, case-insensitive
	// (default capsnet-mnist-like).
	Benchmark string `json:"benchmark,omitempty"`
	// Seed overrides the server's master seed for this job.
	Seed *uint64 `json:"seed,omitempty"`
	// Backend and Bits select the execution backend of validate jobs
	// (default quant-approx at 8 bits); rejected for other kinds.
	Backend string `json:"backend,omitempty"`
	Bits    uint   `json:"bits,omitempty"`
	// NMSweep overrides the noise-magnitude grid of sweep jobs; NA the
	// noise average. Empty keeps the paper defaults, which is what makes
	// an overrides-free job byte-identical to the CLI experiment. For
	// fault-sweep jobs the grid is the severity grid (flip probability or
	// stuck fraction).
	NMSweep []float64 `json:"nm_sweep,omitempty"`
	NA      float64   `json:"na,omitempty"`
	// Fault and FaultBits select the injector of fault-sweep jobs
	// (default bit-flip at 8 bits; see noise.Kinds); rejected for other
	// kinds.
	Fault     string `json:"fault,omitempty"`
	FaultBits uint   `json:"fault_bits,omitempty"`
	// Softmax and Squash select the nonlinearity variants the job
	// evaluates under ("" or "exact" keeps the bit-exact operators; see
	// approx.SoftmaxNames / approx.SquashNames). Valid for every kind.
	Softmax string `json:"softmax,omitempty"`
	Squash  string `json:"squash,omitempty"`
	// Probes enables the numeric-health probes: per-layer activation
	// statistics collected at every sweep point, served as the "probes"
	// result format. Probing is inert — the text/CSV/JSON artifacts stay
	// byte-identical — but roughly doubles evaluation cost, so it is
	// off by default. It is a diagnostic knob, not a results-affecting
	// one, and deliberately absent from the engine fingerprint.
	Probes bool `json:"probes,omitempty"`
	// Distributed runs the job's sweeps over the worker fleet: windows
	// are leased to `redcane worker` processes instead of the local pool.
	// Artifacts are byte-identical either way, so this too is a
	// scheduling knob, absent from the engine fingerprint. Rejected for
	// validate jobs (no sweeps to distribute) and with probes (probe
	// stats never travel the wire).
	Distributed bool `json:"distributed,omitempty"`
	// Priority orders the job in the queue: "low", "normal" (or ""), or
	// "high". Higher priorities dequeue first — no preemption, so a quick
	// high-priority validate runs ahead of queued methodology runs but
	// never interrupts one. Like distributed, it is a scheduling knob:
	// absent from the engine fingerprint, no effect on artifacts.
	Priority string `json:"priority,omitempty"`
}

// The priority levels a spec may name, and their queue ranks.
var priorityRanks = map[string]int{"low": -1, "": 0, "high": 1}

// priorityRank resolves a normalized priority to its queue rank.
func priorityRank(p string) int { return priorityRanks[p] }

// normalize validates the spec in place, canonicalizing the kind and
// benchmark key and filling defaults. Errors are user errors (HTTP 400).
func (spec *JobSpec) normalize() error {
	spec.Kind = strings.ToLower(strings.TrimSpace(spec.Kind))
	known := false
	for _, k := range JobKinds {
		if spec.Kind == k {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown job kind %q (valid: %s)", spec.Kind, strings.Join(JobKinds, ", "))
	}
	if spec.Benchmark == "" {
		spec.Benchmark = experiments.DefaultBenchmark.Key()
	}
	b, err := experiments.FindBenchmark(spec.Benchmark)
	if err != nil {
		return err
	}
	spec.Benchmark = b.Key()
	for _, nm := range spec.NMSweep {
		if math.IsNaN(nm) || math.IsInf(nm, 0) {
			return fmt.Errorf("nm_sweep contains non-finite value %v", nm)
		}
		if nm < 0 {
			// The CLI's Options.WithDefaults silently drops negative grid
			// entries; a job submission naming one is a mistake worth a 400,
			// not a silently smaller grid.
			return fmt.Errorf("nm_sweep contains negative value %v (noise magnitudes are >= 0)", nm)
		}
	}
	if math.IsNaN(spec.NA) || math.IsInf(spec.NA, 0) {
		return fmt.Errorf("na is not finite")
	}
	if spec.NA < 0 {
		return fmt.Errorf("na = %v is negative (noise averages are >= 0)", spec.NA)
	}
	if spec.Distributed {
		if spec.Kind == KindValidate {
			return fmt.Errorf("distributed applies only to sweep and methodology jobs")
		}
		if spec.Probes {
			return fmt.Errorf("probes cannot be collected over a distributed fleet")
		}
	}
	if spec.Kind == KindValidate {
		// Fill Validate's defaults so the persisted spec is canonical.
		if spec.Backend == "" {
			spec.Backend = "quant-approx"
		}
		if spec.Bits == 0 {
			spec.Bits = 8
		}
		if err := experiments.CheckBackend(spec.Backend, spec.Bits); err != nil {
			return err
		}
	} else if spec.Backend != "" || spec.Bits != 0 {
		return fmt.Errorf("backend/bits apply only to validate jobs")
	}
	if spec.Kind == KindFaultSweep {
		if spec.Fault == "" {
			spec.Fault = noise.KindBitFlip
		}
		ns, err := (noise.Spec{Kind: spec.Fault, Bits: spec.FaultBits}).Normalize()
		if err != nil {
			return err
		}
		spec.Fault, spec.FaultBits = ns.Kind, ns.Bits
	} else if spec.Fault != "" || spec.FaultBits != 0 {
		return fmt.Errorf("fault/fault_bits apply only to fault-sweep jobs")
	}
	if _, err := core.ResolveNonlinearity(spec.Softmax, spec.Squash); err != nil {
		return err
	}
	if spec.Softmax == "exact" {
		spec.Softmax = ""
	}
	if spec.Squash == "exact" {
		spec.Squash = ""
	}
	spec.Priority = strings.ToLower(strings.TrimSpace(spec.Priority))
	if spec.Priority == "normal" {
		spec.Priority = "" // canonical form, like softmax "exact"
	}
	if _, ok := priorityRanks[spec.Priority]; !ok {
		return fmt.Errorf("unknown priority %q (valid: low, normal, high)", spec.Priority)
	}
	return nil
}

// Artifacts is a finished job's outputs — the same text, CSV and JSON
// forms the CLI writes for the corresponding command.
type Artifacts struct {
	// Text is the rendered result (what the CLI prints to stdout).
	Text string
	// CSV is the machine-readable form, when the result has one.
	CSV []byte
	// JSON is the design-report JSON, when applicable (methodology jobs).
	JSON []byte
	// ProbesCSV / ProbesJSON are the numeric-health probe artifacts,
	// present when the job asked for probes.
	ProbesCSV  []byte
	ProbesJSON []byte
}

// artifact file names in the job store, by ?format= key.
var artifactFiles = map[string]struct{ name, contentType string }{
	"text":       {"result.txt", "text/plain; charset=utf-8"},
	"csv":        {"result.csv", "text/csv; charset=utf-8"},
	"json":       {"result.json", "application/json"},
	"probes":     {"probes.json", "application/json"},
	"probes-csv": {"probes.csv", "text/csv; charset=utf-8"},
}

// files maps the present artifacts to their store names for persistence.
func (a Artifacts) files() map[string][]byte {
	out := map[string][]byte{"result.txt": []byte(a.Text)}
	for name, data := range map[string][]byte{
		"result.csv":  a.CSV,
		"result.json": a.JSON,
		"probes.csv":  a.ProbesCSV,
		"probes.json": a.ProbesJSON,
	} {
		if data != nil {
			out[name] = data
		}
	}
	return out
}

// renderer / csvWriter mirror the result interfaces the CLI consumes.
type renderer interface{ Render() string }
type csvWriter interface{ WriteCSV(io.Writer) error }

// artifactsFor assembles the artifacts of one rendered result: its text,
// its CSV when it has one, and the report JSON of a methodology run.
func artifactsFor(res renderer) (Artifacts, error) {
	out := Artifacts{Text: res.Render()}
	if cw, ok := res.(csvWriter); ok {
		var buf bytes.Buffer
		if err := cw.WriteCSV(&buf); err != nil {
			return Artifacts{}, err
		}
		out.CSV = buf.Bytes()
	}
	if d, ok := res.(*experiments.DesignResult); ok {
		var buf bytes.Buffer
		if err := d.Report.WriteJSON(&buf); err != nil {
			return Artifacts{}, err
		}
		out.JSON = buf.Bytes()
	}
	return out, nil
}

// runSpec executes one job against the real experiment runner. Each job
// owns a fresh Runner so nothing is shared across concurrent jobs except
// the weight-cache directory (guarded by the server's train gate) and
// the process metrics registry; analysis checkpoints are keyed by the
// job's private directory, so a restarted server resumes this job — and
// only this job — from its last completed sweep window.
func (s *Server) runSpec(ctx context.Context, spec JobSpec, jobDir string, o *obs.Obs) (Artifacts, error) {
	b, err := experiments.FindBenchmark(spec.Benchmark)
	if err != nil {
		return Artifacts{}, err
	}
	seed := s.cfg.Seed
	if spec.Seed != nil {
		seed = *spec.Seed
	}
	var probes *core.ProbeSet
	if spec.Probes {
		probes = core.NewProbeSet()
	}
	var fleet core.Fleet
	if spec.Distributed {
		fleet = s.fleet.ForJob(filepath.Base(jobDir), spec.Benchmark, s.cfg.Quick, seed)
	}
	r := experiments.NewRunner(experiments.Config{
		Dir:           s.cfg.StateDir,
		Quick:         s.cfg.Quick,
		Seed:          seed,
		Workers:       s.jobWorkers(),
		Obs:           o,
		Ctx:           ctx,
		Checkpoint:    true,
		CheckpointDir: jobDir,
		TrainMu:       &s.trainMu,
		Probes:        probes,
		Fleet:         fleet,
		Softmax:       spec.Softmax,
		Squash:        spec.Squash,
	})
	ov := experiments.Overrides{NMSweep: spec.NMSweep, NA: spec.NA}
	var res renderer
	switch spec.Kind {
	case KindGroupSweep:
		res, err = r.GroupSweep(b, ov)
	case KindLayerSweep:
		res, err = r.LayerSweep(b, ov)
	case KindMethodology:
		res, err = r.Design(b)
	case KindValidate:
		res, err = r.Validate(b, spec.Backend, spec.Bits)
	case KindFaultSweep:
		res, err = r.FaultSweep(b, noise.Spec{Kind: spec.Fault, Bits: spec.FaultBits}, ov)
	default:
		err = fmt.Errorf("unknown job kind %q", spec.Kind)
	}
	if err != nil {
		return Artifacts{}, err
	}
	art, err := artifactsFor(res)
	if err != nil {
		return Artifacts{}, err
	}
	if probes != nil {
		var cbuf, jbuf bytes.Buffer
		if err := probes.WriteCSV(&cbuf); err != nil {
			return Artifacts{}, err
		}
		if err := probes.WriteJSON(&jbuf); err != nil {
			return Artifacts{}, err
		}
		art.ProbesCSV = cbuf.Bytes()
		art.ProbesJSON = jbuf.Bytes()
	}
	return art, nil
}
