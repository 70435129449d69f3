//go:build amd64

package tensor

import "os"

// useAVX gates the hand-written AVX kernels in simd_amd64.s. Every AVX
// kernel is bit-identical to its scalar counterpart (same summation
// order, no FMA), so this flag trades speed only — results are the same
// on every machine, which the sweep engine's cross-run determinism
// relies on. Setting REDCANE_NOSIMD=1 (any non-empty value) forces the
// scalar paths; the kernel tests flip the variable directly to compare
// both implementations.
var useAVX = avxSupported() && os.Getenv("REDCANE_NOSIMD") == ""

// avxSupported reports whether the CPU has AVX and the OS saves the YMM
// state (CPUID.1:ECX OSXSAVE+AVX, then XCR0 bits 1 and 2 via XGETBV).
func avxSupported() bool {
	maxID, _, _, _ := cpuidx(0, 0)
	if maxID < 1 {
		return false
	}
	_, _, ecx, _ := cpuidx(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	lo, _ := xgetbv0()
	return lo&6 == 6
}

// Implemented in simd_amd64.s. The kernels keep no pointer past their
// return, so //go:noescape lets callers keep operands on the stack —
// without it every dot8Into call heap-allocates its [32]float64 lanes.

func cpuidx(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

//go:noescape
func gemm8LanesAVX(a, w *float64, wStride, k4 int, lanes *[32]float64)

//go:noescape
func fused3RowsAVX(dst, x *float64, rows, n int, dstStride, xStride int, w0, w1, w2 float64)

//go:noescape
func fused3Rows2AVX(dst0, dst1, x *float64, rows, n int, dstStride, xStride int, u0, u1, u2, v0, v1, v2 float64)
