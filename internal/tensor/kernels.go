package tensor

import "fmt"

// Matrix-multiply and im2col kernels. Training spends most of its time
// here (DESIGN.md §16), so the kernels are register-tiled, and each has
// an Into form that writes a caller-owned destination so layers can
// reuse their buffers across steps.
//
// Tiling never changes a result bit. Every output element sums its terms
// in increasing k order, one rounded multiply-add at a time, starting
// from +0 — exactly the naive triple loop. MatMul and MatMulTransA skip
// a term whose a entry is zero, so a NaN or Inf in b behind a zero a
// never reaches the output; MatMulTransB sums every term.

// MatMul multiplies a (m×k) by b (k×n) and returns an m×n tensor.
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := matMulDims(a, b)
	out := New(m, n)
	accumulateRows(out.data, a.data, k, 1, b.data, m, k, n)
	return out
}

// MatMulInto is MatMul writing into a caller-provided m×n destination.
// Every element of out is assigned.
//
//nebula:hotpath
func MatMulInto(out, a, b *Tensor) {
	m, k, n := matMulDims(a, b)
	checkDest("MatMul", out, m, n)
	clear(out.data)
	accumulateRows(out.data, a.data, k, 1, b.data, m, k, n)
}

func matMulDims(a, b *Tensor) (m, k, n int) {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic("tensor: MatMul requires 2-D operands")
	}
	m, k = a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %v × %v", a.shape, b.shape))
	}
	return m, k, n
}

// MatMulTransA multiplies aᵀ (where a is k×m) by b (k×n), returning m×n.
func MatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := matMulTransADims(a, b)
	out := New(m, n)
	accumulateRows(out.data, a.data, 1, m, b.data, m, k, n)
	return out
}

// MatMulTransAInto is MatMulTransA writing into a caller-provided m×n
// destination. Every element of out is assigned.
//
//nebula:hotpath
func MatMulTransAInto(out, a, b *Tensor) {
	k, m, n := matMulTransADims(a, b)
	checkDest("MatMulTransA", out, m, n)
	clear(out.data)
	accumulateRows(out.data, a.data, 1, m, b.data, m, k, n)
}

func matMulTransADims(a, b *Tensor) (k, m, n int) {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic("tensor: MatMulTransA requires 2-D operands")
	}
	k, m = a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimensions differ: %vᵀ × %v", a.shape, b.shape))
	}
	return k, m, n
}

func checkDest(op string, out *Tensor, m, n int) {
	if out.NDim() != 2 || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination %v, want [%d %d]", op, out.shape, m, n))
	}
}

// accumulateRows adds a·b into the m×n matrix out, where the (i, kk)
// entry of a is a[i*ai+kk*ak] and b is k×n. For each output row it
// gathers the nonzero a entries in increasing kk order and applies them
// four per pass over the row, so the row is loaded and stored once per
// four terms instead of once per term.
func accumulateRows(out, a []float64, ai, ak int, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		orow := out[i*n : (i+1)*n]
		var av [4]float64
		var bo [4]int
		cnt := 0
		for kk, p := 0, i*ai; kk < k; kk, p = kk+1, p+ak {
			v := a[p]
			if v == 0 {
				continue
			}
			av[cnt], bo[cnt] = v, kk*n
			cnt++
			if cnt == 4 {
				axpy4(orow, av, b[bo[0]:bo[0]+n], b[bo[1]:bo[1]+n], b[bo[2]:bo[2]+n], b[bo[3]:bo[3]+n])
				cnt = 0
			}
		}
		for t := 0; t < cnt; t++ {
			axpy1(orow, av[t], b[bo[t]:bo[t]+n])
		}
	}
}

// axpy4 applies four terms to o, in order, one rounded multiply-add each.
func axpy4(o []float64, a [4]float64, b0, b1, b2, b3 []float64) {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	for j, s := range o {
		s += a0 * b0[j]
		s += a1 * b1[j]
		s += a2 * b2[j]
		s += a3 * b3[j]
		o[j] = s
	}
}

// axpy1 applies one term to o.
func axpy1(o []float64, a float64, b []float64) {
	b = b[:len(o)]
	for j, bv := range b {
		o[j] += a * bv
	}
}

// MatMulTransB multiplies a (m×k) by bᵀ where b is n×k, returning m×n.
func MatMulTransB(a, b *Tensor) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic("tensor: MatMulTransB requires 2-D operands")
	}
	out := New(a.shape[0], b.shape[0])
	MatMulTransBInto(out, a, b)
	return out
}

// MatMulTransBInto is MatMulTransB writing into a caller-provided m×n
// destination, so per-timestep callers reuse one accumulator buffer.
// Every element of out is assigned. Each pass over a row of a produces
// four outputs.
//
//nebula:hotpath
func MatMulTransBInto(out, a, b *Tensor) {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic("tensor: MatMulTransB requires 2-D operands")
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimensions differ: %v × %vᵀ", a.shape, b.shape))
	}
	checkDest("MatMulTransB", out, m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.data[j*k : (j+1)*k][:len(arow)]
			b1 := b.data[(j+1)*k : (j+2)*k][:len(arow)]
			b2 := b.data[(j+2)*k : (j+3)*k][:len(arow)]
			b3 := b.data[(j+3)*k : (j+4)*k][:len(arow)]
			var s0, s1, s2, s3 float64
			for kk, av := range arow {
				s0 += av * b0[kk]
				s1 += av * b1[kk]
				s2 += av * b2[kk]
				s3 += av * b3[kk]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b.data[j*k : (j+1)*k][:len(arow)]
			s := 0.0
			for kk, av := range arow {
				s += av * brow[kk]
			}
			orow[j] = s
		}
	}
}

// validSpan returns the range [lo, hi) of output positions o in [0, on)
// whose input index o*stride + k - pad lies inside [0, n).
func validSpan(on, n, k, stride, pad int) (lo, hi int) {
	off := k - pad
	if off < 0 {
		lo = (-off + stride - 1) / stride
	}
	if n > off {
		hi = (n - off + stride - 1) / stride
	}
	hi = min(hi, on)
	lo = min(lo, hi)
	return lo, hi
}

// Im2Col unfolds a single image (C×H×W) into a matrix of shape
// (C*KH*KW) × (OH*OW) so that convolution becomes a matrix multiply.
// Padding positions read as zero.
func Im2Col(img *Tensor, kh, kw, stride, pad int) *Tensor {
	if img.NDim() != 3 {
		panic("tensor: Im2Col requires a C×H×W tensor")
	}
	c, h, w := img.shape[0], img.shape[1], img.shape[2]
	out := New(c*kh*kw, ConvOutSize(h, kh, stride, pad)*ConvOutSize(w, kw, stride, pad))
	Im2ColInto(out, img, kh, kw, stride, pad)
	return out
}

// Im2ColInto is Im2Col writing into a caller-provided (C*KH*KW) ×
// (OH*OW) destination. Every element of out is assigned; padding
// positions get zero. Row ((ch*KH)+ki)*KW+kj holds channel ch, so the
// rows of a channel group are contiguous.
//
//nebula:hotpath
func Im2ColInto(out, img *Tensor, kh, kw, stride, pad int) {
	if img.NDim() != 3 {
		panic("tensor: Im2Col requires a C×H×W tensor")
	}
	c, h, w := img.shape[0], img.shape[1], img.shape[2]
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	checkDest("Im2Col", out, c*kh*kw, oh*ow)
	for ch := 0; ch < c; ch++ {
		src := img.data[ch*h*w : (ch+1)*h*w]
		for ki := 0; ki < kh; ki++ {
			iLo, iHi := validSpan(oh, h, ki, stride, pad)
			for kj := 0; kj < kw; kj++ {
				jLo, jHi := validSpan(ow, w, kj, stride, pad)
				row := ((ch*kh)+ki)*kw + kj
				dst := out.data[row*oh*ow : (row+1)*oh*ow]
				clear(dst[:iLo*ow])
				clear(dst[iHi*ow:])
				for oi := iLo; oi < iHi; oi++ {
					d := dst[oi*ow : (oi+1)*ow]
					clear(d[:jLo])
					clear(d[jHi:])
					if jLo == jHi {
						continue
					}
					s := src[(oi*stride+ki-pad)*w:]
					jj := jLo*stride + kj - pad
					if stride == 1 {
						copy(d[jLo:jHi], s[jj:])
						continue
					}
					for oj := jLo; oj < jHi; oj, jj = oj+1, jj+stride {
						d[oj] = s[jj]
					}
				}
			}
		}
	}
}

// Col2Im folds a (C*KH*KW) × (OH*OW) column matrix back into a C×H×W
// image, accumulating overlapping contributions. It is the adjoint of
// Im2Col and is used for convolution backward passes.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	img := New(c, h, w)
	Col2ImInto(img, cols, kh, kw, stride, pad)
	return img
}

// Col2ImInto is Col2Im folding into a caller-provided C×H×W image, which
// it clears first. Each pixel sums its contributions in (ki, kj) order
// from +0, as Col2Im does.
//
//nebula:hotpath
func Col2ImInto(img, cols *Tensor, kh, kw, stride, pad int) {
	if img.NDim() != 3 {
		panic("tensor: Col2Im requires a C×H×W destination")
	}
	c, h, w := img.shape[0], img.shape[1], img.shape[2]
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	if cols.NDim() != 2 || cols.shape[0] != c*kh*kw || cols.shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Col2Im shape %v incompatible with c=%d h=%d w=%d k=%dx%d", cols.shape, c, h, w, kh, kw))
	}
	clear(img.data)
	for ch := 0; ch < c; ch++ {
		dst := img.data[ch*h*w : (ch+1)*h*w]
		for ki := 0; ki < kh; ki++ {
			iLo, iHi := validSpan(oh, h, ki, stride, pad)
			for kj := 0; kj < kw; kj++ {
				jLo, jHi := validSpan(ow, w, kj, stride, pad)
				if jLo == jHi {
					continue
				}
				row := ((ch*kh)+ki)*kw + kj
				src := cols.data[row*oh*ow : (row+1)*oh*ow]
				for oi := iLo; oi < iHi; oi++ {
					s := src[oi*ow+jLo : oi*ow+jHi]
					d := dst[(oi*stride+ki-pad)*w:]
					jj := jLo*stride + kj - pad
					for _, v := range s {
						d[jj] += v
						jj += stride
					}
				}
			}
		}
	}
}
