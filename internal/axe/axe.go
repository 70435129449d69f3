// Package axe provides the quantized execution backends: it runs a
// trained CapsNet's MAC kernels through genuine b-bit affine-quantized
// arithmetic — exactly (QuantExact) or through behavioral
// approximate-multiplier LUTs (QuantApprox) — instead of modeling the
// error as injected Gaussian noise.
//
// The paper validates its noise model by construction (Fig. 6 shows the
// component errors are Gaussian-like); these backends close the loop
// empirically: both implement caps.Backend, so accuracy under true
// approximate arithmetic is measured by the same engine (workers,
// prefix caching, checkpoints, telemetry) that evaluates the noise
// model's prediction, and the two can be compared per group and per
// layer (the `redcane validate` experiment).
package axe

import (
	"sync/atomic"

	"redcane/internal/approx"
	"redcane/internal/fixed"
	"redcane/internal/tensor"
)

// macRows is one concrete MAC loop: dst[k] = Σ_i mul(row[i], w[k·len(row)+i])
// for every k — the raw code-domain product sums of one operand row
// against len(dst) contiguous weight rows. Each kernel call picks its
// loop once (macRowsFor), so the multiply inside is a plain integer
// multiply or a table load, never a call per product.
type macRows func(dst []int64, row, w []uint16)

// macRowsFor returns the exact loop for a nil lut, else the LUT loop.
func macRowsFor(lut *approx.LUT) macRows {
	if lut == nil {
		return macRowsExact
	}
	return func(dst []int64, row, w []uint16) { macRowsLUT(lut, dst, row, w) }
}

// macRowsExact multiplies codes of up to 16 bits exactly. Each product
// fits in 32 bits, so the uint64 sums cannot wrap for any real row.
// Weight rows go four at a time, sharing each operand load.
func macRowsExact(dst []int64, row, w []uint16) {
	k := len(row)
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		w0 := w[j*k : (j+1)*k][:len(row)]
		w1 := w[(j+1)*k : (j+2)*k][:len(row)]
		w2 := w[(j+2)*k : (j+3)*k][:len(row)]
		w3 := w[(j+3)*k : (j+4)*k][:len(row)]
		var s0, s1, s2, s3 uint64
		for i, x := range row {
			xv := uint64(x)
			s0 += xv * uint64(w0[i])
			s1 += xv * uint64(w1[i])
			s2 += xv * uint64(w2[i])
			s3 += xv * uint64(w3[i])
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = int64(s0), int64(s1), int64(s2), int64(s3)
	}
	for ; j < len(dst); j++ {
		wr := w[j*k : (j+1)*k][:len(row)]
		var sum uint64
		for i, x := range row {
			sum += uint64(x) * uint64(wr[i])
		}
		dst[j] = int64(sum)
	}
}

// macRowsLUT multiplies 8-bit codes through a compiled behavioral LUT,
// four weight rows at a time.
func macRowsLUT(lut *approx.LUT, dst []int64, row, w []uint16) {
	k := len(row)
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		w0 := w[j*k : (j+1)*k][:len(row)]
		w1 := w[(j+1)*k : (j+2)*k][:len(row)]
		w2 := w[(j+2)*k : (j+3)*k][:len(row)]
		w3 := w[(j+3)*k : (j+4)*k][:len(row)]
		var s0, s1, s2, s3 uint64
		for i, x := range row {
			a := uint8(x)
			s0 += uint64(lut.Mul(a, uint8(w0[i])))
			s1 += uint64(lut.Mul(a, uint8(w1[i])))
			s2 += uint64(lut.Mul(a, uint8(w2[i])))
			s3 += uint64(lut.Mul(a, uint8(w3[i])))
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = int64(s0), int64(s1), int64(s2), int64(s3)
	}
	for ; j < len(dst); j++ {
		wr := w[j*k : (j+1)*k][:len(row)]
		var sum uint64
		for i, x := range row {
			sum += uint64(lut.Mul(uint8(x), uint8(wr[i])))
		}
		dst[j] = int64(sum)
	}
}

// quantizeCodes calibrates a b-bit affine quantizer on t and encodes
// every element into a scratch-recycled code buffer.
func quantizeCodes(t *tensor.Tensor, bits uint, s *tensor.Scratch) (fixed.Quantizer, []uint16) {
	q := fixed.Calibrate(t, bits)
	codes := s.TakeU16(t.Len())
	for i, v := range t.Data {
		codes[i] = q.Quantize(v)
	}
	return q, codes
}

// accSatMax returns the largest magnitude the hardware accumulator model
// holds for b-bit operands: a 2b-bit product register plus 8 guard bits
// (256 guard terms), signed. A raw code-domain product sum beyond
// ±(2^(2b+7)) is an accumulator overflow on such hardware — the numeric
// health probes count these. The Go kernels themselves accumulate in
// 64 bits and never wrap; the count is diagnostic only.
func accSatMax(bits uint) int64 {
	accBits := 2*bits + 8
	return int64(1)<<(accBits-1) - 1
}

// accOverflows reports whether a raw product sum overflows the modeled
// accumulator (see accSatMax).
func accOverflows(sum, satMax int64) bool { return sum > satMax || sum < -satMax-1 }

// convWindow holds the hoisted per-(oy,ox) border quantities for one
// distinct valid-tap window [kyLo,kyHi)×[kxLo,kxHi): the per-channel
// valid weight-code sums, the per-channel correction for zero-code
// padded products (nil for exact products, where mul(0,c) = 0), and the
// valid tap count. There are at most (KH+1)·(KW+1) distinct windows
// per convolution, so each is computed once instead of re-walking the
// kernel per (oc, oy, ox).
type convWindow struct {
	wsum  []int64 // per-oc Σ wq over the valid window
	m0    []int64 // per-oc Σ mul(0, wq) over the *padded* complement
	valid int64
}

// quantConv2D convolves x [n, inCh, h, w] with kernels w [outCh, inCh,
// k, k] using b-bit affine-quantized operands, multiplying exactly when
// lut is nil and through lut otherwise, and accumulating exactly. Bias
// (may be nil) is added in float. Both quantizers are calibrated per
// call on the full tensors, the same per-array ranging the paper's noise
// model uses. The output may come from the scratch arena; callers
// release it.
//
// The kernel is a streaming code-domain integer GEMM: each output
// position's patch row of operand codes is gathered once (padding as
// code 0) and multiplied against every output channel's contiguous
// weight row, and its Σ x-codes is computed once for all channels.
// Zero-point cross terms use the hoisted convWindow tables. The n·oh·ow
// patch rows are split across cores, each chunk with its own row buffer;
// every output element is written by exactly one chunk and integer
// accumulation is order-free, so results are exact-equal to the naive
// reference (axe_ref_test.go) for any worker split. A non-nil ovf
// additionally tallies accumulator overflows (see accSatMax) without
// changing any output bit.
func quantConv2D(lut *approx.LUT, x, w, bias *tensor.Tensor, stride, pad int, bits uint, s *tensor.Scratch, ovf *int64) *tensor.Tensor {
	qx, xq := quantizeCodes(x, bits, s)
	qw, wq := quantizeCodes(w, bits, s)

	spec := tensor.ConvSpec{
		KH: w.Shape[2], KW: w.Shape[3], Stride: stride, Pad: pad,
		OutCh: w.Shape[0], InCh: w.Shape[1],
	}
	n, h, wd := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := spec.OutSize(h, wd)

	patch := spec.InCh * spec.KH * spec.KW
	out := s.Take(n, spec.OutCh, oh, ow)
	rows := oh * ow

	// mul0 is the product of a zero code and c: nonzero for some LUTs.
	mul0 := func(c uint16) int64 {
		if lut == nil {
			return 0
		}
		return int64(lut.Mul(0, uint8(c)))
	}

	// Whole-kernel per-oc sums: Σ wq and Σ mul(0, wq).
	sumWq := make([]int64, spec.OutCh)
	sumM0 := make([]int64, spec.OutCh)
	for oc := 0; oc < spec.OutCh; oc++ {
		var sw, s0 int64
		for _, c := range wq[oc*patch : (oc+1)*patch] {
			sw += int64(c)
			s0 += mul0(c)
		}
		sumWq[oc] = sw
		sumM0[oc] = s0
	}
	interior := &convWindow{wsum: sumWq, valid: int64(patch)}

	windows := map[int]*convWindow{}
	winFor := func(yLo, yHi, xLo, xHi int) *convWindow {
		if yLo == 0 && yHi == spec.KH && xLo == 0 && xHi == spec.KW {
			return interior
		}
		key := ((yLo*(spec.KH+1)+yHi)*(spec.KW+1)+xLo)*(spec.KW+1) + xHi
		if bw, ok := windows[key]; ok {
			return bw
		}
		bw := &convWindow{
			wsum:  make([]int64, spec.OutCh),
			valid: int64(spec.InCh * (yHi - yLo) * (xHi - xLo)),
		}
		if lut != nil {
			bw.m0 = make([]int64, spec.OutCh)
		}
		for oc := 0; oc < spec.OutCh; oc++ {
			var sw, s0 int64
			for ci := 0; ci < spec.InCh; ci++ {
				for ky := yLo; ky < yHi; ky++ {
					base := oc*patch + (ci*spec.KH+ky)*spec.KW
					for kx := xLo; kx < xHi; kx++ {
						c := wq[base+kx]
						sw += int64(c)
						s0 += mul0(c)
					}
				}
			}
			bw.wsum[oc] = sw
			// Padded complement: zero-code products the flat GEMM row
			// accumulated that the reference never sees.
			if bw.m0 != nil {
				bw.m0[oc] = sumM0[oc] - s0
			}
		}
		windows[key] = bw
		return bw
	}

	// Resolve every output position's window before the rows go
	// parallel: winFor writes to the windows map.
	wins := make([]*convWindow, rows)
	for oy := 0; oy < oh; oy++ {
		yLo, yHi := clampTap(oy, stride, pad, spec.KH, h)
		for ox := 0; ox < ow; ox++ {
			xLo, xHi := clampTap(ox, stride, pad, spec.KW, wd)
			wins[oy*ow+ox] = winFor(yLo, yHi, xLo, xHi)
		}
	}

	sx, mx := qx.Step(), qx.Min
	sw, mw := qw.Step(), qw.Min
	var biasData []float64
	if bias != nil {
		biasData = bias.Data
	}
	satMax := accSatMax(bits)
	mac := macRowsFor(lut)
	var over atomic.Int64
	tensor.ParallelRows(n*rows, func(r0, r1 int) {
		row := make([]uint16, patch)
		sums := make([]int64, spec.OutCh)
		var chunkOver int64
		for r := r0; r < r1; r++ {
			b, p := r/rows, r%rows
			gatherCodeRow(row, xq, b, p/ow, p%ow, h, wd, spec)
			mac(sums, row, wq)
			chunkOver += quantAccRow(sums, row, wins[p], sx, mx, sw, mw, biasData,
				out.Data[b*spec.OutCh*rows+p:], rows, satMax)
		}
		over.Add(chunkOver)
	})
	if ovf != nil {
		*ovf += over.Load()
	}
	s.ReleaseU16(xq, wq)
	return out
}

// clampTap returns the in-bounds tap range [lo, hi) for output index o:
// taps t with 0 ≤ o*stride + t - pad < size.
func clampTap(o, stride, pad, k, size int) (lo, hi int) {
	lo, hi = pad-o*stride, size+pad-o*stride
	if lo < 0 {
		lo = 0
	}
	if hi > k {
		hi = k
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// gatherCodeRow writes the patch's operand codes for output position
// (b, oy, ox) into dst, with code 0 at padded taps.
func gatherCodeRow(dst []uint16, xq []uint16, b, oy, ox, h, wd int, spec tensor.ConvSpec) {
	i := 0
	for ci := 0; ci < spec.InCh; ci++ {
		chBase := (b*spec.InCh + ci) * h * wd
		for ky := 0; ky < spec.KH; ky++ {
			iy := oy*spec.Stride + ky - spec.Pad
			if iy < 0 || iy >= h {
				for kx := 0; kx < spec.KW; kx++ {
					dst[i] = 0
					i++
				}
				continue
			}
			rowBase := chBase + iy*wd
			for kx := 0; kx < spec.KW; kx++ {
				ix := ox*spec.Stride + kx - spec.Pad
				if ix < 0 || ix >= wd {
					dst[i] = 0
				} else {
					dst[i] = xq[rowBase+ix]
				}
				i++
			}
		}
	}
}

// quantAccRow finishes one patch row against every output channel:
// sums[oc] is the row's raw product sum against channel oc, to which it
// applies the pad correction, the hoisted zero-point cross terms and the
// float epilogue. dst[oc*dstStride] receives channel oc. It returns how
// many raw sums (before the pad correction — hardware accumulates every
// term) overflow the modeled accumulator.
func quantAccRow(sums []int64, row []uint16, win *convWindow, sx, mx, sw, mw float64, bias []float64, dst []float64, dstStride int, satMax int64) (over int64) {
	var xSum int64
	for _, xc := range row {
		xSum += int64(xc)
	}
	for oc, lutSum := range sums {
		if accOverflows(lutSum, satMax) {
			over++
		}
		if win.m0 != nil {
			lutSum -= win.m0[oc]
		}
		acc := sx*sw*float64(lutSum) +
			sx*mw*float64(xSum) +
			sw*mx*float64(win.wsum[oc]) +
			mx*mw*float64(win.valid)
		if bias != nil {
			acc += bias[oc]
		}
		dst[oc*dstStride] = acc
	}
	return over
}
