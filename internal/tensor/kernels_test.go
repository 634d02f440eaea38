package tensor

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// The naive loops below are the reference oracles for the tiled kernels:
// each is the straightforward triple loop, one rounded multiply-add per
// term in increasing k order. The tiled kernels must match them bit for
// bit (DESIGN.md §16).

func oracleMatMul(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b.data[kk*n : (kk+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func oracleMatMulTransB(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.data[j*k : (j+1)*k]
			s := 0.0
			for kk, av := range arow {
				s += av * brow[kk]
			}
			orow[j] = s
		}
	}
	return out
}

func oracleMatMulTransA(a, b *Tensor) *Tensor {
	k, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	for kk := 0; kk < k; kk++ {
		arow := a.data[kk*m : (kk+1)*m]
		brow := b.data[kk*n : (kk+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func oracleIm2Col(img *Tensor, kh, kw, stride, pad int) *Tensor {
	c, h, w := img.shape[0], img.shape[1], img.shape[2]
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	out := New(c*kh*kw, oh*ow)
	for ch := 0; ch < c; ch++ {
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				row := ((ch*kh)+ki)*kw + kj
				for oi := 0; oi < oh; oi++ {
					ii := oi*stride + ki - pad
					if ii < 0 || ii >= h {
						continue
					}
					for oj := 0; oj < ow; oj++ {
						jj := oj*stride + kj - pad
						if jj < 0 || jj >= w {
							continue
						}
						out.data[row*oh*ow+oi*ow+oj] = img.data[ch*h*w+ii*w+jj]
					}
				}
			}
		}
	}
	return out
}

func oracleCol2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	img := New(c, h, w)
	for ch := 0; ch < c; ch++ {
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				row := ((ch*kh)+ki)*kw + kj
				for oi := 0; oi < oh; oi++ {
					ii := oi*stride + ki - pad
					if ii < 0 || ii >= h {
						continue
					}
					for oj := 0; oj < ow; oj++ {
						jj := oj*stride + kj - pad
						if jj < 0 || jj >= w {
							continue
						}
						img.data[ch*h*w+ii*w+jj] += cols.data[row*oh*ow+oi*ow+oj]
					}
				}
			}
		}
	}
	return img
}

// Fill flags for kernelOperand.
const (
	fillZeros   = 1 << iota // 30% of the entries are zero
	fillSpecial             // 5% are ±Inf or NaN
	fillNegZero             // 10% are −0
)

// kernelOperand returns an m×n matrix of normal draws with the
// stress patterns the flags select.
func kernelOperand(r *rng.Rand, m, n int, flags uint8) *Tensor {
	x := New(m, n)
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for i := range x.data {
		v := r.NormFloat64()
		switch p := r.Float64(); {
		case flags&fillZeros != 0 && p < 0.3:
			v = 0
		case flags&fillNegZero != 0 && p >= 0.3 && p < 0.4:
			v = math.Copysign(0, -1)
		case flags&fillSpecial != 0 && p >= 0.4 && p < 0.45:
			v = specials[r.Intn(len(specials))]
		}
		x.data[i] = v
	}
	return x
}

// dirty returns an m×n destination full of NaN, so an Into kernel that
// leaves any element unassigned shows up as a mismatch.
func dirty(shape ...int) *Tensor { return New(shape...).Fill(math.NaN()) }

// assertBitwise requires got to equal want bit for bit, except that any
// NaN matches any NaN: when two NaNs with different payloads meet in an
// addition, which one survives depends on the operand order the compiler
// picks for that commutative instruction, which Go does not specify.
func assertBitwise(t *testing.T, tag string, want, got *Tensor) {
	t.Helper()
	if !SameShape(want, got) {
		t.Fatalf("%s: shape %v, want %v", tag, got.shape, want.shape)
	}
	for i, w := range want.data {
		if math.IsNaN(w) && math.IsNaN(got.data[i]) {
			continue
		}
		if math.Float64bits(w) != math.Float64bits(got.data[i]) {
			t.Fatalf("%s: element %d = %v (%#x), oracle %v (%#x)", tag, i,
				got.data[i], math.Float64bits(got.data[i]), w, math.Float64bits(w))
		}
	}
}

// checkMatMulKernels compares every matmul kernel and its Into form
// against the oracles for an m×k by k×n product: a carries the stress
// pattern aFlags, b the pattern bFlags.
func checkMatMulKernels(t *testing.T, r *rng.Rand, m, k, n int, aFlags, bFlags uint8) {
	t.Helper()
	a := kernelOperand(r, m, k, aFlags)
	b := kernelOperand(r, k, n, bFlags)
	want := oracleMatMul(a, b)
	assertBitwise(t, "MatMul", want, MatMul(a, b))
	out := dirty(m, n)
	MatMulInto(out, a, b)
	assertBitwise(t, "MatMulInto", want, out)

	at := kernelOperand(r, k, m, aFlags) // aᵀ operand: k×m
	want = oracleMatMulTransA(at, b)
	assertBitwise(t, "MatMulTransA", want, MatMulTransA(at, b))
	out = dirty(m, n)
	MatMulTransAInto(out, at, b)
	assertBitwise(t, "MatMulTransAInto", want, out)

	bt := kernelOperand(r, n, k, bFlags) // bᵀ operand: n×k
	want = oracleMatMulTransB(a, bt)
	assertBitwise(t, "MatMulTransB", want, MatMulTransB(a, bt))
	out = dirty(m, n)
	MatMulTransBInto(out, a, bt)
	assertBitwise(t, "MatMulTransBInto", want, out)
}

// checkConvKernels compares Im2Col, Col2Im and their Into forms against
// the oracles on one geometry.
func checkConvKernels(t *testing.T, r *rng.Rand, c, h, w, kh, kw, stride, pad int, flags uint8) {
	t.Helper()
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	if oh < 1 || ow < 1 {
		return
	}
	img := kernelOperand(r, c, h*w, flags).Reshape(c, h, w)
	want := oracleIm2Col(img, kh, kw, stride, pad)
	assertBitwise(t, "Im2Col", want, Im2Col(img, kh, kw, stride, pad))
	cols := dirty(c*kh*kw, oh*ow)
	Im2ColInto(cols, img, kh, kw, stride, pad)
	assertBitwise(t, "Im2ColInto", want, cols)

	g := kernelOperand(r, c*kh*kw, oh*ow, flags)
	want = oracleCol2Im(g, c, h, w, kh, kw, stride, pad)
	assertBitwise(t, "Col2Im", want, Col2Im(g, c, h, w, kh, kw, stride, pad))
	back := dirty(c, h, w)
	Col2ImInto(back, g, kh, kw, stride, pad)
	assertBitwise(t, "Col2ImInto", want, back)
}

// TestMatMulKernelsBitwise sweeps shapes around the tile width of 4,
// including m = 1 (the shape of the engine read-out's MatMulTransBInto
// call) and k = 0, under every stress pattern.
func TestMatMulKernelsBitwise(t *testing.T) {
	r := rng.New(0x7115)
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 13}
	for _, flags := range []uint8{0, fillZeros, fillZeros | fillSpecial, fillNegZero, fillZeros | fillNegZero | fillSpecial} {
		for _, m := range dims {
			for _, k := range append([]int{0}, dims...) {
				for _, n := range dims {
					checkMatMulKernels(t, r, m, k, n, flags&^fillSpecial, flags)
				}
			}
		}
	}
}

// TestConvKernelsBitwise sweeps kernel, stride and padding combinations,
// including kernels wider than the padded input on one axis.
func TestConvKernelsBitwise(t *testing.T) {
	r := rng.New(0xC011)
	for _, g := range []struct{ c, h, w, kh, kw, stride, pad int }{
		{1, 1, 1, 1, 1, 1, 0},
		{3, 5, 5, 3, 3, 1, 1},
		{2, 6, 7, 3, 3, 2, 1},
		{2, 7, 6, 5, 5, 1, 2},
		{1, 4, 9, 1, 3, 3, 0},
		{2, 5, 5, 3, 3, 3, 2},
		{1, 3, 3, 5, 5, 1, 1},
		{4, 8, 8, 1, 1, 1, 0},
		{2, 9, 4, 4, 2, 2, 3},
	} {
		checkConvKernels(t, r, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad, fillNegZero|fillSpecial)
	}
}

// FuzzMatMulKernels lets the fuzzer search for a shape or a stress
// pattern where a tiled or Into kernel diverges from its naive oracle.
// The seed corpus runs in every go test: dimensions off the tile width,
// zero a entries in front of ±Inf/NaN in b, −0 inputs and the m = 1
// read-out shape.
func FuzzMatMulKernels(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(7), uint8(9), uint8(fillZeros|fillSpecial))
	f.Add(uint64(2), uint8(1), uint8(37), uint8(10), uint8(0))
	f.Add(uint64(3), uint8(6), uint8(11), uint8(3), uint8(fillNegZero))
	f.Add(uint64(4), uint8(1), uint8(64), uint8(13), uint8(fillZeros|fillNegZero|fillSpecial))
	f.Add(uint64(5), uint8(17), uint8(3), uint8(1), uint8(fillZeros))
	f.Fuzz(func(t *testing.T, seed uint64, m8, k8, n8, flags uint8) {
		m, k, n := int(m8%48)+1, int(k8%80), int(n8%48)+1
		r := rng.New(seed)
		checkMatMulKernels(t, r, m, k, n, flags&^fillSpecial, flags)
		c, h, w := 1+m%4, 1+k%11, 1+n%11
		kh, kw := 1+int(seed%5), 1+int(seed>>8%5)
		stride, pad := 1+int(flags>>3%3), int(flags>>5%3)
		checkConvKernels(t, r, c, h, w, kh, kw, stride, pad, flags)
	})
}

// TestIntoKernelsDoNotAllocate pins the allocation-free contract of the
// Into kernels that the hotalloc analyzer proves statically.
func TestIntoKernelsDoNotAllocate(t *testing.T) {
	r := rng.New(3)
	a, b := kernelOperand(r, 6, 9, 0), kernelOperand(r, 9, 5, 0)
	at, bt := kernelOperand(r, 9, 6, 0), kernelOperand(r, 5, 9, 0)
	img := kernelOperand(r, 2, 36, 0).Reshape(2, 6, 6)
	out, cols, back := New(6, 5), New(18, 9), New(2, 6, 6)
	allocs := testing.AllocsPerRun(20, func() {
		MatMulInto(out, a, b)
		MatMulTransAInto(out, at, b)
		MatMulTransBInto(out, a, bt)
		Im2ColInto(cols, img, 3, 3, 2, 1)
		Col2ImInto(back, cols, 3, 3, 2, 1)
	})
	if allocs != 0 {
		t.Fatalf("Into kernels allocated %v times per call, want 0", allocs)
	}
}
