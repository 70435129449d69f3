package axe

import (
	"sync/atomic"

	"redcane/internal/approx"
	"redcane/internal/tensor"
)

// quantCapsVotes computes the fully-connected capsule votes û[b,i,j,d] =
// Σ_e W[i,j,d,e]·u[b,i,e] with b-bit quantized operands, multiplying
// exactly when lut is nil and through lut otherwise, mirroring
// caps.ClassCaps' float vote stage. u is [n, inCaps, inDim]; w is
// [inCaps, outCaps, outDim, inDim]. The output may come from the scratch
// arena; callers release it.
//
// The per-(i,j,d) weight-code sums are batch-independent, so they are
// computed once up front instead of inside the innermost loop (the
// reference in axe_ref_test.go re-derives them per vote). The n·inCaps
// input-capsule rows are split across cores; each row's votes are written
// by one chunk and integer sums are order-free, so results match the
// reference exactly for any worker split. A non-nil ovf tallies
// accumulator overflows (see accSatMax) without changing any output bit.
func quantCapsVotes(lut *approx.LUT, u, w *tensor.Tensor, bits uint, s *tensor.Scratch, ovf *int64) *tensor.Tensor {
	qu, uc := quantizeCodes(u, bits, s)
	qw, wc := quantizeCodes(w, bits, s)

	n, inCaps, inDim := u.Shape[0], u.Shape[1], u.Shape[2]
	outCaps, outDim := w.Shape[1], w.Shape[2]
	jds := outCaps * outDim

	sumW := make([]int64, inCaps*jds)
	for r := range sumW {
		var sw int64
		for _, c := range wc[r*inDim : (r+1)*inDim] {
			sw += int64(c)
		}
		sumW[r] = sw
	}

	su, mu := qu.Step(), qu.Min
	sw, mw := qw.Step(), qw.Min
	satMax := accSatMax(bits)
	mac := macRowsFor(lut)
	votes := s.Take(n, inCaps, outCaps, outDim, 1)
	var over atomic.Int64
	tensor.ParallelRows(n*inCaps, func(r0, r1 int) {
		sums := make([]int64, jds)
		var chunkOver int64
		for r := r0; r < r1; r++ {
			urow := uc[r*inDim : (r+1)*inDim]
			var sumU int64
			for _, c := range urow {
				sumU += int64(c)
			}
			wr := (r % inCaps) * jds
			mac(sums, urow, wc[wr*inDim:(wr+jds)*inDim])
			dst := votes.Data[r*jds : (r+1)*jds]
			for jd, lutSum := range sums {
				if accOverflows(lutSum, satMax) {
					chunkOver++
				}
				dst[jd] = su*sw*float64(lutSum) +
					su*mw*float64(sumU) +
					sw*mu*float64(sumW[wr+jd]) +
					mu*mw*float64(inDim)
			}
		}
		over.Add(chunkOver)
	})
	if ovf != nil {
		*ovf += over.Load()
	}
	s.ReleaseU16(uc, wc)
	return votes
}
