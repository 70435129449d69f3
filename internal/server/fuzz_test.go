package server

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzJobSpecNormalize fuzzes the job-spec trust boundary: the body of
// POST /v1/jobs, decoded as submit decodes it, then normalized. normalize
// must never panic, and an accepted spec must be a fixed point — it
// re-normalizes to an identical copy — with a known kind.
func FuzzJobSpecNormalize(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"group-sweep"}`,
		`{"kind":"layer-sweep","benchmark":"deepcaps-cifar-like","nm_sweep":[0.5,0.05],"na":0.01}`,
		`{"kind":"methodology","seed":7,"softmax":"base2","squash":"sqnorm","priority":"high"}`,
		`{"kind":"validate","backend":"quant-exact","bits":12}`,
		`{"kind":"fault-sweep","fault":"bit-flip","fault_bits":4,"distributed":true}`,
		`{"kind":"VALIDATE","benchmark":"CapsNet-MNIST-Like","priority":" Normal "}`,
		`{"kind":"validate","bits":17}`,
		`{"kind":"group-sweep","backend":"float"}`,
		`{"kind":"fault-sweep","fault":"stuck-at-2"}`,
		`{"kind":"group-sweep","nm_sweep":[-1]}`,
		`{"kind":"validate","distributed":true}`,
		`{"kind":"bogus"}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var spec JobSpec
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		if err := spec.normalize(); err != nil {
			return
		}
		if !slices.Contains(JobKinds, spec.Kind) {
			t.Fatalf("accepted unknown kind %q", spec.Kind)
		}
		again := spec
		again.NMSweep = slices.Clone(spec.NMSweep)
		if spec.Seed != nil {
			seed := *spec.Seed
			again.Seed = &seed
		}
		if err := again.normalize(); err != nil {
			t.Fatalf("normalized spec %+v rejected on re-normalize: %v", spec, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("normalize is not idempotent:\n first %+v\nsecond %+v", spec, again)
		}
	})
}
