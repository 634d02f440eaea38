// Package tensor implements a small dense n-dimensional array library used
// by the neural-network, SNN and quantization layers of the NEBULA
// simulator.
//
// Tensors are float64, row-major, and carry an explicit shape. Convolutional
// data uses NCHW layout throughout the repository. The package deliberately
// implements only the operations the simulator needs — elementwise
// arithmetic, matrix multiplication, im2col/col2im and pooling — rather than
// a general BLAS.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major n-dimensional array of float64 values.
type Tensor struct {
	shape []int
	data  []float64
}

// New allocates a zero-filled tensor with the given shape. A scalar is
// represented by an empty shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the backing slice. Mutations are visible to the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Size returns the total element count.
func (t *Tensor) Size() int { return len(t.data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NDim returns the number of dimensions.
func (t *Tensor) NDim() int { return len(t.shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view over the same data with a new shape. The element
// count must match. One dimension may be -1 and is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	infer := -1
	n := 1
	for i, d := range shape {
		if d == -1 {
			if infer != -1 {
				panic("tensor: more than one inferred dimension")
			}
			infer = i
		} else {
			n *= d
		}
	}
	s := make([]int, len(shape))
	copy(s, shape)
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		s[infer] = len(t.data) / n
		n *= s[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v", t.shape, len(t.data), shape))
	}
	return &Tensor{shape: s, data: t.data}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.offset(idx)] = v
}

// offset flattens a multi-index. idx must not escape: At and Set are
// variadic, so a leaking idx would make every caller heap-allocate its
// implicit index slice. The panic messages therefore format a copy.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", append([]int(nil), idx...), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", append([]int(nil), idx...), t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Fill sets every element to v and returns the tensor.
func (t *Tensor) Fill(v float64) *Tensor {
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Apply replaces each element x with f(x) in place and returns the tensor.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// Map returns a new tensor with f applied elementwise.
func (t *Tensor) Map(f func(float64) float64) *Tensor {
	return t.Clone().Apply(f)
}

// AddInPlace adds other elementwise; shapes must match exactly.
func (t *Tensor) AddInPlace(other *Tensor) *Tensor {
	t.assertSameShape(other)
	for i, v := range other.data {
		t.data[i] += v
	}
	return t
}

// SubInPlace subtracts other elementwise.
func (t *Tensor) SubInPlace(other *Tensor) *Tensor {
	t.assertSameShape(other)
	for i, v := range other.data {
		t.data[i] -= v
	}
	return t
}

// MulInPlace multiplies elementwise (Hadamard product).
func (t *Tensor) MulInPlace(other *Tensor) *Tensor {
	t.assertSameShape(other)
	for i, v := range other.data {
		t.data[i] *= v
	}
	return t
}

// ScaleInPlace multiplies every element by s.
func (t *Tensor) ScaleInPlace(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// AxpyInPlace computes t += alpha*other.
func (t *Tensor) AxpyInPlace(alpha float64, other *Tensor) *Tensor {
	t.assertSameShape(other)
	for i, v := range other.data {
		t.data[i] += alpha * v
	}
	return t
}

func (t *Tensor) assertSameShape(other *Tensor) {
	if !SameShape(t, other) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.shape, other.shape))
	}
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. It panics on an empty tensor.
func (t *Tensor) Min() float64 {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// AbsMax returns max |x| over all elements (0 for empty tensors).
func (t *Tensor) AbsMax() float64 {
	m := 0.0
	for _, v := range t.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// ArgMax returns the flat index of the maximum element.
func (t *Tensor) ArgMax() int {
	if len(t.data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	bestIdx := 0
	bestVal := t.data[0]
	for i, v := range t.data {
		if v > bestVal {
			bestVal = v
			bestIdx = i
		}
	}
	return bestIdx
}

// Dot returns the inner product of two same-shaped tensors.
func Dot(a, b *Tensor) float64 {
	a.assertSameShape(b)
	s := 0.0
	for i, v := range a.data {
		s += v * b.data[i]
	}
	return s
}

// Transpose returns a new tensor that is the transpose of a 2-D tensor.
func (t *Tensor) Transpose() *Tensor {
	if t.NDim() != 2 {
		panic("tensor: Transpose requires a 2-D tensor")
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = t.data[i*n+j]
		}
	}
	return out
}

// ConvOutSize returns the output spatial size for a convolution with the
// given input size, kernel, stride and padding.
func ConvOutSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// Slice4D returns the i-th item of a 4-D NCHW tensor as a C×H×W view
// sharing the underlying data.
func (t *Tensor) Slice4D(i int) *Tensor {
	if t.NDim() != 4 {
		panic("tensor: Slice4D requires a 4-D tensor")
	}
	n, c, h, w := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
	if i < 0 || i >= n {
		panic(fmt.Sprintf("tensor: Slice4D index %d out of %d", i, n))
	}
	sz := c * h * w
	return &Tensor{shape: []int{c, h, w}, data: t.data[i*sz : (i+1)*sz]}
}

// Row returns row i of a 2-D tensor as a view.
func (t *Tensor) Row(i int) *Tensor {
	if t.NDim() != 2 {
		panic("tensor: Row requires a 2-D tensor")
	}
	n := t.shape[1]
	return &Tensor{shape: []int{n}, data: t.data[i*n : (i+1)*n]}
}

// String renders small tensors for debugging.
func (t *Tensor) String() string {
	if len(t.data) > 64 {
		return fmt.Sprintf("Tensor%v{...%d elems, mean=%.4g}", t.shape, len(t.data), t.Mean())
	}
	return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
}
