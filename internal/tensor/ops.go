package tensor

import (
	"fmt"
	"math"
)

// AxisStrides computes, for a reduction/normalization along `axis` of a
// tensor with the given shape, the iteration decomposition
// (outer, axisLen, inner) such that the flat index of element
// (o, a, i) is (o*axisLen+a)*inner + i.
func AxisStrides(shape []int, axis int) (outer, axisLen, inner int) {
	if axis < 0 || axis >= len(shape) {
		panic(fmt.Sprintf("tensor: axis %d out of range for shape %v", axis, shape))
	}
	outer, inner = 1, 1
	for i := 0; i < axis; i++ {
		outer *= shape[i]
	}
	axisLen = shape[axis]
	for i := axis + 1; i < len(shape); i++ {
		inner *= shape[i]
	}
	return outer, axisLen, inner
}

// Softmax computes the softmax of t along the given axis, returning a new
// tensor of the same shape. It is numerically stabilized by max-subtraction.
func Softmax(t *Tensor, axis int) *Tensor {
	outer, n, inner := AxisStrides(t.Shape, axis)
	out := New(t.Shape...)
	for o := 0; o < outer; o++ {
		for i := 0; i < inner; i++ {
			maxv := math.Inf(-1)
			for a := 0; a < n; a++ {
				v := t.Data[(o*n+a)*inner+i]
				if v > maxv {
					maxv = v
				}
			}
			sum := 0.0
			for a := 0; a < n; a++ {
				e := math.Exp(t.Data[(o*n+a)*inner+i] - maxv)
				out.Data[(o*n+a)*inner+i] = e
				sum += e
			}
			for a := 0; a < n; a++ {
				out.Data[(o*n+a)*inner+i] /= sum
			}
		}
	}
	return out
}

// Squash applies the capsule squashing nonlinearity along `axis`:
//
//	squash(s) = (‖s‖² / (1+‖s‖²)) · s/‖s‖
//
// It bounds each capsule vector's norm to [0, 1) while preserving
// orientation (Sabour et al., NIPS 2017). eps guards the zero vector.
func Squash(t *Tensor, axis int) *Tensor {
	const eps = 1e-12
	outer, n, inner := AxisStrides(t.Shape, axis)
	out := New(t.Shape...)
	for o := 0; o < outer; o++ {
		for i := 0; i < inner; i++ {
			norm2 := 0.0
			for a := 0; a < n; a++ {
				v := t.Data[(o*n+a)*inner+i]
				norm2 += v * v
			}
			norm := math.Sqrt(norm2 + eps)
			scale := norm2 / (1 + norm2) / norm
			for a := 0; a < n; a++ {
				idx := (o*n+a)*inner + i
				out.Data[idx] = t.Data[idx] * scale
			}
		}
	}
	return out
}

// SquashBackward computes the gradient of Squash along `axis`: given the
// forward input x and upstream gradient gy, it returns gx.
//
// With n = ‖x‖, squash(x) = n/(1+n²) · x/1 ... written as f(n)·x with
// f(n) = 1/(1+n²) · n/n = n²/(1+n²)/n. The Jacobian is
// f(n)·I + f'(n)/n · x xᵀ where f(n) = n/(1+n²), i.e. the usual
// radial-tangential decomposition.
func SquashBackward(x, gy *Tensor, axis int) *Tensor {
	const eps = 1e-12
	outer, n, inner := AxisStrides(x.Shape, axis)
	gx := New(x.Shape...)
	for o := 0; o < outer; o++ {
		for i := 0; i < inner; i++ {
			norm2 := 0.0
			dot := 0.0
			for a := 0; a < n; a++ {
				idx := (o*n+a)*inner + i
				norm2 += x.Data[idx] * x.Data[idx]
				dot += x.Data[idx] * gy.Data[idx]
			}
			norm := math.Sqrt(norm2 + eps)
			// s(x) = f(norm) * x with f(r) = r/(1+r²) applied radially:
			// squash(x) = (norm/(1+norm²)) * (x/norm) * norm = norm/(1+norm²)·x̂·norm
			// Using g(r) = r/(1+r²) on the unit direction:
			// squash(x) = g2(r)·x where g2(r) = r/(1+r²)/1 ... = 1/(1+r²)·r/r.
			// Concretely scale = norm²/(1+norm²)/norm = norm/(1+norm²).
			scale := norm / (1 + norm2)
			// d scale/d norm = (1+norm²-2norm²)/(1+norm²)² = (1-norm²)/(1+norm²)²
			dscale := (1 - norm2) / ((1 + norm2) * (1 + norm2))
			for a := 0; a < n; a++ {
				idx := (o*n+a)*inner + i
				gx.Data[idx] = scale*gy.Data[idx] + dscale*(dot/norm)*x.Data[idx]
			}
		}
	}
	return gx
}

// ReLU returns max(x, 0) elementwise as a new tensor.
func ReLU(t *Tensor) *Tensor {
	return t.Map(func(v float64) float64 {
		if v > 0 {
			return v
		}
		return 0
	})
}

// ReLUBackward masks the upstream gradient gy by the sign of the forward
// input x.
func ReLUBackward(x, gy *Tensor) *Tensor {
	mustSameShape(x, gy, "ReLUBackward")
	gx := New(x.Shape...)
	for i, v := range x.Data {
		if v > 0 {
			gx.Data[i] = gy.Data[i]
		}
	}
	return gx
}

// NormAxis returns the Euclidean norm of each vector along `axis`
// (shape = t's shape with that axis removed).
func NormAxis(t *Tensor, axis int) *Tensor {
	outer, n, inner := AxisStrides(t.Shape, axis)
	shape := make([]int, 0, len(t.Shape)-1)
	shape = append(shape, t.Shape[:axis]...)
	shape = append(shape, t.Shape[axis+1:]...)
	out := New(shape...)
	for o := 0; o < outer; o++ {
		for i := 0; i < inner; i++ {
			s := 0.0
			for a := 0; a < n; a++ {
				v := t.Data[(o*n+a)*inner+i]
				s += v * v
			}
			out.Data[o*inner+i] = math.Sqrt(s)
		}
	}
	return out
}

// PercentileRange returns the spread between the lo-th and hi-th
// percentiles of t's values (lo, hi in [0, 100]), a robust alternative to
// the min/max Range for heavy-tailed tensors.
func PercentileRange(t *Tensor, lo, hi float64) float64 {
	n := len(t.Data)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), t.Data...)
	sortFloats(s)
	idx := func(p float64) float64 {
		i := int(p / 100 * float64(n-1))
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return s[i]
	}
	return idx(hi) - idx(lo)
}
