package axe

import (
	"fmt"
	"runtime"
	"testing"

	"redcane/internal/approx"
	"redcane/internal/tensor"
)

// weirdMul is a deliberately hostile multiplier: mul(0, c) ≠ 0, so the
// code-domain GEMM's padded zero-code products are wrong unless the
// hoisted border correction subtracts them. Only tests use it; real
// approximate multipliers may also violate mul(0, c) = 0.
type weirdMul struct{}

func (weirdMul) Mul(a, b uint8) uint16 { return uint16(a)*uint16(b) + uint16(b&7) + 3 }

// kernelProcs are the GOMAXPROCS settings every bitwise check runs
// under: the inline single-core path, an even split and an uneven one.
var kernelProcs = []int{1, 2, 3}

// compile returns the kernels' multiplier for m: nil (exact) for a nil
// m, else its compiled LUT.
func compile(m approx.Multiplier) *approx.LUT {
	if m == nil {
		return nil
	}
	return approx.CompileLUT(m)
}

func requireSameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v vs %v", what, got.Shape, want.Shape)
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v (bitwise)", what, i, got.Data[i], want.Data[i])
		}
	}
}

// forEachProcs runs f under each kernelProcs setting, restoring
// GOMAXPROCS afterwards.
func forEachProcs(t *testing.T, f func(procs int)) {
	t.Helper()
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, p := range kernelProcs {
		runtime.GOMAXPROCS(p)
		f(p)
	}
}

type convCase struct {
	n, c, h, w, oc, k, stride, pad int
}

// convCases spans small shapes (below tensor.ParallelRows' 64-row
// cutoff, so they run inline) and large ones whose n·oh·ow rows are
// split across workers.
var convCases = []convCase{
	{1, 1, 5, 5, 1, 3, 1, 0},
	{2, 3, 8, 8, 4, 3, 1, 1},
	{1, 2, 9, 9, 3, 9, 1, 0},
	{2, 4, 8, 8, 6, 3, 2, 1},
	{1, 1, 4, 4, 2, 1, 1, 0},
	{3, 2, 7, 5, 5, 3, 2, 2},
	{4, 16, 8, 8, 32, 3, 1, 1},
	{3, 8, 16, 16, 8, 3, 2, 1},
	{5, 4, 7, 9, 7, 3, 1, 2},
}

// checkQuantConv runs the kernel against the naive reference for one
// multiplier (nil = exact) over convCases, under every kernelProcs
// setting, with and without scratch: outputs and overflow counts must
// match bit for bit.
func checkQuantConv(t *testing.T, name string, m approx.Multiplier, bits uint) {
	t.Helper()
	lut := compile(m)
	for i, tc := range convCases {
		x := randT(uint64(i+1), tc.n, tc.c, tc.h, tc.w)
		w := randT(uint64(i+100), tc.oc, tc.c, tc.k, tc.k)
		bias := randT(uint64(i+200), tc.oc)
		for _, b := range []*tensor.Tensor{bias, nil} {
			ref, refOvf := quantConv2DRef(m, x, w, b, tc.stride, tc.pad, bits)
			forEachProcs(t, func(procs int) {
				what := fmt.Sprintf("%s case %d procs %d", name, i, procs)
				var ovf int64
				requireSameBits(t, what, quantConv2D(lut, x, w, b, tc.stride, tc.pad, bits, nil, &ovf), ref)
				if ovf != refOvf {
					t.Fatalf("%s: overflow count %d, want %d", what, ovf, refOvf)
				}

				s := tensor.NewScratch()
				got := quantConv2D(lut, x, w, b, tc.stride, tc.pad, bits, s, nil)
				requireSameBits(t, what+" scratch", got, ref)
				s.Release(got)
				requireSameBits(t, what+" scratch reuse", quantConv2D(lut, x, w, b, tc.stride, tc.pad, bits, s, nil), ref)
			})
		}
	}
}

func TestQuantConv2DBitwiseVsRefExact(t *testing.T) { checkQuantConv(t, "exact", nil, 8) }

func TestQuantConv2DBitwiseVsRefExact12Bit(t *testing.T) {
	checkQuantConv(t, "exact12", nil, 12)
}

func TestQuantConv2DBitwiseVsRefLUT(t *testing.T) {
	checkQuantConv(t, "lut", approx.BrokenCarry{Depth: 6, Compensate: true}, 8)
}

func TestQuantConv2DBitwiseVsRefWeirdMul(t *testing.T) {
	// mul(0, c) ≠ 0: the padded-zero correction must be exact, on the
	// same LUT loop approximate layers run in production.
	checkQuantConv(t, "weird", weirdMul{}, 8)
}

func TestQuantConv2DOverflowCountsVsRef(t *testing.T) {
	// 4-bit operands over 80·3·3 = 720 taps: interior raw sums overflow
	// the modeled accumulator and border ones do not, so the count is
	// neither 0 nor all.
	x := randT(60, 2, 80, 6, 6)
	w := randT(61, 8, 80, 3, 3)
	for _, m := range []approx.Multiplier{nil, weirdMul{}} {
		_, refOvf := quantConv2DRef(m, x, w, nil, 1, 1, 4)
		if refOvf == 0 || refOvf == 2*8*6*6 {
			t.Fatalf("%v: reference overflow count %d does not exercise the check", m, refOvf)
		}
		forEachProcs(t, func(procs int) {
			var ovf int64
			quantConv2D(compile(m), x, w, nil, 1, 1, 4, nil, &ovf)
			if ovf != refOvf {
				t.Fatalf("%v procs %d: overflow count %d, want %d", m, procs, ovf, refOvf)
			}
		})
	}
}

func TestQuantCapsVotesBitwiseVsRef(t *testing.T) {
	for _, tc := range []struct {
		name                          string
		n, inCaps, inDim, outCaps, od int
		bits                          uint
	}{
		{"small", 3, 18, 8, 10, 16, 8},
		// DeepCaps' ClassCaps: 8 capsule types on a 2×2 plane, 8-D, into
		// 10 16-D class capsules; n·inCaps = 128 rows go parallel.
		{"deepcaps", 4, 32, 8, 10, 16, 8},
		// 4-bit codes over 1000 terms overflow the modeled accumulator.
		{"overflow", 2, 40, 1000, 3, 4, 4},
	} {
		u := randT(31, tc.n, tc.inCaps, tc.inDim)
		w := randT(32, tc.inCaps, tc.outCaps, tc.od, tc.inDim)
		for _, m := range []approx.Multiplier{nil, approx.BrokenCarry{Depth: 4}, weirdMul{}} {
			want, refOvf := quantCapsVotesRef(m, u, w, tc.bits)
			if tc.name == "overflow" && refOvf == 0 {
				t.Fatalf("%s %v: reference counted no overflows", tc.name, m)
			}
			lut := compile(m)
			forEachProcs(t, func(procs int) {
				what := fmt.Sprintf("votes %s %v procs %d", tc.name, m, procs)
				var ovf int64
				requireSameBits(t, what, quantCapsVotes(lut, u, w, tc.bits, nil, &ovf), want)
				if ovf != refOvf {
					t.Fatalf("%s: overflow count %d, want %d", what, ovf, refOvf)
				}
			})
		}
	}
}
