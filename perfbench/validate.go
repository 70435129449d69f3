package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"redcane/internal/approx"
	"redcane/internal/axe"
	"redcane/internal/caps"
	"redcane/internal/core"
	"redcane/internal/datasets"
	"redcane/internal/noise"
)

// validateEval is how many test examples one validate job evaluates under
// each of the two bit-accurate backends.
const validateEval = 32

// validateBits is the wordlength of both backends.
const validateBits = 8

// validateMargin bounds how far quant-exact accuracy may sit from float
// accuracy on the same examples: 8-bit quantization is expected to cost
// at most a few examples in validateEval.
const validateMargin = 0.1

type validateInst struct {
	b      *bench
	net    *caps.Network
	data   *datasets.Dataset
	approx caps.Backend
	// Reference accuracies: float is measured once before the first job;
	// exact and approximate are fixed by the first job, and every later
	// job must reproduce them bit for bit.
	float, exact, approxAcc float64
	haveFloat, haveRef      bool
}

func setupValidate(b *bench, sp *span) (instance, error) {
	ds, err := b.dataset("cifar-like", 0, validateEval, sp)
	if err != nil {
		return nil, err
	}
	net, err := b.loadNetwork("deepcaps-cifar-like", ds, sp)
	if err != nil {
		return nil, err
	}
	lsp := sp.child("setup.lut_compile")
	be, err := approxBackend(net)
	lsp.end()
	if err != nil {
		return nil, err
	}
	return &validateInst{b: b, net: net, data: ds, approx: be}, nil
}

// approxBackend compiles the fixed design the validate workload runs:
// every MAC layer, in name order, gets the next approximate component of
// approx.Library() round robin, so every layer is approximate, the
// clean-prefix cache has nothing to replay, and every LUT is built.
func approxBackend(net *caps.Network) (*axe.QuantApprox, error) {
	var layers []string
	for l := range net.MACDepths() {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var comps []approx.Component
	for _, c := range approx.Library() {
		if _, exact := c.Model.(approx.Exact); !exact {
			comps = append(comps, c)
		}
	}
	mults := map[string]approx.Multiplier{}
	for i, l := range layers {
		mults[l] = comps[i%len(comps)].Model
	}
	return axe.NewQuantApprox(validateBits, mults)
}

func (v *validateInst) close() {}

func (v *validateInst) analyzer() *core.Analyzer {
	return &core.Analyzer{Net: v.net, Data: v.data, Opts: core.Options{
		Batch: 32, MaxEval: validateEval, Workers: v.b.nproc,
	}}
}

func (v *validateInst) phase(d time.Duration, parent *span) phaseStats {
	if !v.haveFloat {
		acc, err := caps.AccuracyExec(context.Background(), v.net, v.data.TestX, v.data.TestY,
			noise.None{}, caps.Float{}, 32, v.b.nproc)
		if err != nil {
			return phaseStats{attempted: 1, failed: 1, failures: []string{err.Error()}}
		}
		v.float, v.haveFloat = acc, true
	}
	ps := runOps(d, func() (float64, error) { return v.job(parent.child("job")) })
	if parent != nil {
		ps.layers = metrics{}
		tr := parent.tracer()
		for _, be := range []string{"quant-exact", "quant-approx"} {
			ms := median(tr.durations("core.Analyzer.EvalBackend."+be, "phase.validate"))
			ps.layers.set("core.eval_backend."+be+".ms", ms, "ms")
		}
	}
	return ps
}

// job evaluates the test split bit-accurately under quant-exact and the
// approximate design, as `redcane validate` does, and checks that
// quant-exact stays within validateMargin of float and that both
// accuracies are identical on every job.
func (v *validateInst) job(sp *span) (float64, error) {
	defer sp.end()
	ctx := context.Background()
	a := v.analyzer()
	esp := sp.child("core.Analyzer.EvalBackend.quant-exact")
	exact, err := a.EvalBackend(ctx, axe.QuantExact{Bits: validateBits}, "quant-exact")
	esp.end()
	if err != nil {
		return 0, err
	}
	esp = sp.child("core.Analyzer.EvalBackend.quant-approx")
	approxAcc, err := a.EvalBackend(ctx, v.approx, "quant-approx")
	esp.end()
	if err != nil {
		return 0, err
	}
	if !v.haveRef {
		v.exact, v.approxAcc, v.haveRef = exact, approxAcc, true
	}
	if err := checkValidate(v.float, exact, approxAcc, v.exact, v.approxAcc); err != nil {
		return 0, err
	}
	return 2 * validateEval, nil
}

// checkValidate verifies one validate job against the float accuracy and
// the first job's accuracies.
func checkValidate(float, exact, approxAcc, refExact, refApprox float64) error {
	if math.Abs(exact-float) > validateMargin {
		return fmt.Errorf("check: quant-exact accuracy %g is more than %g from float %g", exact, validateMargin, float)
	}
	if exact != refExact || approxAcc != refApprox {
		return fmt.Errorf("check: accuracies (exact %g, approx %g) differ from the first job's (%g, %g)",
			exact, approxAcc, refExact, refApprox)
	}
	return nil
}
