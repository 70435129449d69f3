// Package tensor implements a small dense tensor library used as the
// numerical substrate for the ReD-CaNe CapsNet stack.
//
// Tensors are row-major float64 buffers with an explicit shape. The package
// provides the kernels the rest of the repository builds on: elementwise
// arithmetic, im2col-based 2D convolution (forward and backward), batched
// matrix products, axis reductions, softmax, and range statistics. Everything
// is deterministic; randomized fills take an explicit RNG.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, row-major float64 array with an explicit shape.
// The zero value is an empty scalar-less tensor; use New or NewFrom.
type Tensor struct {
	// Shape holds the extent of each dimension, outermost first.
	Shape []int
	// Data is the row-major backing buffer; len(Data) == product(Shape).
	Data []float64
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// NewFrom wraps data in a tensor with the given shape. The slice is used
// directly (not copied). It panics if len(data) does not match the shape.
func NewFrom(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.Shape) != len(u.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if u.Shape[i] != d {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t's data under a new shape. One dimension may be
// -1, in which case it is inferred. The data buffer is shared.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	n := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dimensions in Reshape")
			}
			infer = i
			continue
		}
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in Reshape", d))
		}
		n *= d
	}
	if infer >= 0 {
		if n == 0 || len(t.Data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension for Reshape %v of %d elements", shape, len(t.Data)))
		}
		shape[infer] = len(t.Data) / n
		n *= shape[infer]
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: Reshape %v incompatible with %d elements", shape, len(t.Data)))
	}
	return &Tensor{Shape: shape, Data: t.Data}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.Data[t.offset(idx)]
}

// Set assigns v to the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Fill sets every element to v and returns t.
func (t *Tensor) Fill(v float64) *Tensor {
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Apply replaces every element x with f(x) and returns t.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
	return t
}

// Map returns a new tensor whose elements are f applied to t's elements.
func (t *Tensor) Map(f func(float64) float64) *Tensor {
	c := New(t.Shape...)
	for i, v := range t.Data {
		c.Data[i] = f(v)
	}
	return c
}

// AddInPlace adds u elementwise into t and returns t.
// Shapes must match exactly.
func (t *Tensor) AddInPlace(u *Tensor) *Tensor {
	mustSameShape(t, u, "AddInPlace")
	for i, v := range u.Data {
		t.Data[i] += v
	}
	return t
}

// SubInPlace subtracts u elementwise from t and returns t.
func (t *Tensor) SubInPlace(u *Tensor) *Tensor {
	mustSameShape(t, u, "SubInPlace")
	for i, v := range u.Data {
		t.Data[i] -= v
	}
	return t
}

// MulInPlace multiplies t elementwise by u and returns t.
func (t *Tensor) MulInPlace(u *Tensor) *Tensor {
	mustSameShape(t, u, "MulInPlace")
	for i, v := range u.Data {
		t.Data[i] *= v
	}
	return t
}

// ScaleInPlace multiplies every element by s and returns t.
func (t *Tensor) ScaleInPlace(s float64) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// Add returns t + u elementwise as a new tensor.
func Add(t, u *Tensor) *Tensor {
	mustSameShape(t, u, "Add")
	c := New(t.Shape...)
	for i := range t.Data {
		c.Data[i] = t.Data[i] + u.Data[i]
	}
	return c
}

// Sub returns t - u elementwise as a new tensor.
func Sub(t, u *Tensor) *Tensor {
	mustSameShape(t, u, "Sub")
	c := New(t.Shape...)
	for i := range t.Data {
		c.Data[i] = t.Data[i] - u.Data[i]
	}
	return c
}

// Mul returns t * u elementwise as a new tensor.
func Mul(t, u *Tensor) *Tensor {
	mustSameShape(t, u, "Mul")
	c := New(t.Shape...)
	for i := range t.Data {
		c.Data[i] = t.Data[i] * u.Data[i]
	}
	return c
}

// Scale returns s*t as a new tensor.
func Scale(t *Tensor, s float64) *Tensor {
	c := New(t.Shape...)
	for i, v := range t.Data {
		c.Data[i] = s * v
	}
	return c
}

func mustSameShape(t, u *Tensor, op string) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.Shape, u.Shape))
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Std returns the population standard deviation of all elements.
func (t *Tensor) Std() float64 {
	n := len(t.Data)
	if n == 0 {
		return 0
	}
	m := t.Mean()
	s := 0.0
	for _, v := range t.Data {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(n))
}

// MinMax returns the minimum and maximum elements.
// For an empty tensor it returns (0, 0).
func (t *Tensor) MinMax() (lo, hi float64) {
	if len(t.Data) == 0 {
		return 0, 0
	}
	lo, hi = t.Data[0], t.Data[0]
	for _, v := range t.Data[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Range returns the dynamic range R(X) = max(X) - min(X) used by the
// ReD-CaNe noise model (paper Sec. III-B).
func (t *Tensor) Range() float64 {
	lo, hi := t.MinMax()
	return hi - lo
}

// Argmax returns the index of the largest element in the flat buffer.
func (t *Tensor) Argmax() int {
	best, arg := math.Inf(-1), 0
	for i, v := range t.Data {
		if v > best {
			best, arg = v, i
		}
	}
	return arg
}

// String renders a compact, shape-prefixed description of the tensor.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.Shape)
	if len(t.Data) <= 8 {
		fmt.Fprintf(&b, "%v", t.Data)
	} else {
		fmt.Fprintf(&b, "[%g %g %g ... %g]", t.Data[0], t.Data[1], t.Data[2], t.Data[len(t.Data)-1])
	}
	return b.String()
}
