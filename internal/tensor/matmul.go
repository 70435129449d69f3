package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// The float matmul/conv kernels share one canonical summation order, so
// every implementation tier (naive reference in matmul_ref.go, blocked
// scalar, AVX assembly) produces bit-identical results:
//
//   - Dot products accumulate into four lanes by index mod 4 and combine
//     as (l0+l1)+(l2+l3). One AVX YMM register holds exactly those four
//     lanes, so the vector kernel is the same arithmetic.
//   - Row-times-matrix products (MatMul, MatMulAT) accumulate output
//     rows by ascending inner index, independent of worker scheduling.

// Dot returns the inner product of a and b (len(a) elements of each) in
// the canonical 4-lane order. It is the scalar reference kernel that
// gemm8LanesAVX reproduces bit-for-bit.
func Dot(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var l0, l1, l2, l3 float64
	p := 0
	for ; p+4 <= n; p += 4 {
		l0 += a[p] * b[p]
		l1 += a[p+1] * b[p+1]
		l2 += a[p+2] * b[p+2]
		l3 += a[p+3] * b[p+3]
	}
	switch n - p {
	case 3:
		l0 += a[p] * b[p]
		l1 += a[p+1] * b[p+1]
		l2 += a[p+2] * b[p+2]
	case 2:
		l0 += a[p] * b[p]
		l1 += a[p+1] * b[p+1]
	case 1:
		l0 += a[p] * b[p]
	}
	return (l0 + l1) + (l2 + l3)
}

// dot8Into computes dst[j] = Dot(a, w[j*wStride:...]) for j in [0, 8),
// through the shared-load AVX tile when available. The eight rows of w
// must be valid for wStride*7+len(a) elements.
func dot8Into(dst []float64, a, w []float64, wStride int) {
	_ = dst[7]
	if !useAVX {
		for j := 0; j < 8; j++ {
			dst[j] = Dot(a, w[j*wStride:j*wStride+len(a)])
		}
		return
	}
	k := len(a)
	k4 := k &^ 3
	var lanes [32]float64
	if k4 > 0 {
		gemm8LanesAVX(&a[0], &w[0], wStride, k4, &lanes)
	}
	for j := 0; j < 8; j++ {
		l := lanes[j*4 : j*4+4 : j*4+4]
		wrow := w[j*wStride:]
		for p := k4; p < k; p++ {
			l[p&3] += a[p] * wrow[p]
		}
		dst[j] = (l[0] + l[1]) + (l[2] + l[3])
	}
}

// MatMul returns a·b for 2D tensors a [M, K] and b [K, N].
func MatMul(a, b *Tensor) *Tensor {
	return MatMulScratch(a, b, nil)
}

// MatMulScratch is MatMul with the output taken from an optional scratch
// arena (nil allocates fresh).
func MatMulScratch(a, b *Tensor, s *Scratch) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, k2))
	}
	out := s.TakeZero(m, n)
	ParallelRows(m, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			arow := a.Data[i*k : (i+1)*k]
			orow := out.Data[i*n : (i+1)*n : (i+1)*n]
			for p, av := range arow {
				if av == 0 {
					// 0·b[p][j] adds ±0, which never changes an
					// accumulator that started at +0 (see matmul_ref.go).
					continue
				}
				brow := b.Data[p*n : (p+1)*n : (p+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	})
	return out
}

// MatMulT returns a·bᵀ for a [M, K] and b [N, K].
// This layout is cache-friendly for conv kernels stored as [OutCh, K].
func MatMulT(a, b *Tensor) *Tensor {
	return MatMulTScratch(a, b, nil)
}

// MatMulTScratch is MatMulT with the output taken from an optional scratch
// arena (nil allocates fresh). Every output element is overwritten, so a
// recycled buffer needs no zeroing. Output rows are computed as blocks of
// eight b-row dot products sharing each a load (the AVX tile), with the
// canonical Dot order per element.
func MatMulTScratch(a, b *Tensor, s *Scratch) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT inner dims %d vs %d", k, k2))
	}
	out := s.Take(m, n)
	n8 := n &^ 7
	ParallelRows(m, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			arow := a.Data[i*k : (i+1)*k]
			orow := out.Data[i*n : (i+1)*n : (i+1)*n]
			for j := 0; j < n8; j += 8 {
				dot8Into(orow[j:j+8], arow, b.Data[j*k:], k)
			}
			for j := n8; j < n; j++ {
				orow[j] = Dot(arow, b.Data[j*k:(j+1)*k])
			}
		}
	})
	return out
}

// MatVecT computes dst[r] = Dot(a, w[r*wStride : r*wStride+len(a)]) for
// every r in [0, len(dst)) — one vector against the rows of a row-major
// matrix — through the shared-load 8-row tile. The capsule vote stage is
// exactly this shape: one input capsule against outCaps·outDim weight rows.
func MatVecT(dst, a, w []float64, wStride int) {
	rows := len(dst)
	r8 := rows &^ 7
	for r := 0; r < r8; r += 8 {
		dot8Into(dst[r:r+8:r+8], a, w[r*wStride:], wStride)
	}
	for r := r8; r < rows; r++ {
		dst[r] = Dot(a, w[r*wStride:r*wStride+len(a)])
	}
}

// MatMulAT returns aᵀ·b for a [K, M] and b [K, N]. Output rows accumulate
// over the K dimension in ascending order regardless of how many workers
// run, so the result is bit-deterministic (the sweep engine's
// worker-count invariance depends on that).
func MatMulAT(a, b *Tensor) *Tensor {
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulAT outer dims %d vs %d", k, k2))
	}
	out := New(m, n)
	ParallelRows(m, func(i0, i1 int) {
		for p := 0; p < k; p++ {
			arow := a.Data[p*m : (p+1)*m]
			brow := b.Data[p*n : (p+1)*n : (p+1)*n]
			for i := i0; i < i1; i++ {
				av := arow[i]
				if av == 0 {
					continue
				}
				orow := out.Data[i*n : (i+1)*n : (i+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	})
	return out
}

// ParallelRows splits [0, n) into contiguous chunks and runs body on each
// chunk, using up to GOMAXPROCS goroutines. Small n (below 64) runs
// inline as one chunk. Chunks run concurrently, so body must write only
// to rows it owns.
func ParallelRows(n int, body func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 64 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
