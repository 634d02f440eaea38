package nn

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution layer with optional channel groups. Groups
// equal to the input channel count gives the depthwise convolution used by
// MobileNet's depthwise-separable blocks; groups of 1 gives a dense
// convolution.
type Conv2D struct {
	name                string
	InC, OutC           int
	KH, KW, Stride, Pad int
	Groups              int
	Weight              *Param // (OutC, InC/Groups, KH, KW)
	Bias                *Param // (OutC)

	lastInput *tensor.Tensor
	ws        convWork
}

// NewConv2D constructs a convolution layer with He-initialized weights.
func NewConv2D(name string, inC, outC, kh, kw, stride, pad, groups int, r *rng.Rand) *Conv2D {
	if groups < 1 || inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: invalid groups %d for conv %d→%d", groups, inC, outC))
	}
	w := tensor.New(outC, inC/groups, kh, kw)
	HeInit(w, inC/groups*kh*kw, r)
	b := tensor.New(outC)
	return &Conv2D{
		name: name, InC: inC, OutC: outC, KH: kh, KW: kw,
		Stride: stride, Pad: pad, Groups: groups,
		Weight: NewParam(name+".weight", w),
		Bias:   NewParam(name+".bias", b),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// OutShape implements Shaper.
func (c *Conv2D) OutShape(in []int) []int {
	if len(in) != 3 {
		panic(fmt.Sprintf("nn: %s expects C×H×W input shape, got %v", c.name, in))
	}
	oh := tensor.ConvOutSize(in[1], c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutSize(in[2], c.KW, c.Stride, c.Pad)
	return []int{c.OutC, oh, ow}
}

// ReceptiveField returns KH*KW*(InC/Groups), the number of crossbar rows a
// single output kernel occupies when flattened per Fig. 5 of the paper.
func (c *Conv2D) ReceptiveField() int { return c.KH * c.KW * c.InC / c.Groups }

// Forward implements Layer. Samples run concurrently on up to
// GOMAXPROCS workers; each writes only its own slice of the output.
// Concurrent calls on one layer are not supported.
func (c *Conv2D) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if x.NDim() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s got input %v, want N×%d×H×W", c.name, x.Shape(), c.InC))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	ws := c.workspace(n, h, w)
	out := tensor.New(n, c.OutC, ws.oh, ws.ow)
	c.lastInput = x

	od, bias := out.Data(), c.Bias.Value.Data()
	plane := ws.oh * ws.ow
	ws.forSamples(n, func(s *convScratch, i int) {
		cols := ws.cols[i]
		tensor.Im2ColInto(cols.whole, x.Slice4D(i), c.KH, c.KW, c.Stride, c.Pad)
		for g, wg := range ws.wGroups {
			tensor.MatMulInto(s.y.groups[g], wg, cols.groups[g])
		}
		dst := od[i*c.OutC*plane : (i+1)*c.OutC*plane]
		res := s.y.whole.Data()
		for oc, b := range bias {
			d := dst[oc*plane : (oc+1)*plane]
			for j, v := range res[oc*plane : (oc+1)*plane] {
				d[j] = v + b
			}
		}
	})
	return out
}

// Backward implements Layer. Samples run concurrently as in Forward,
// each into its own dx slice and its own dW/db partial; the partials are
// then added into the parameter gradients serially in sample order, so
// the result is bitwise independent of the worker count.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.lastInput
	if x == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	ws := &c.ws
	n := x.Dim(0)
	if grad.NDim() != 4 || grad.Dim(0) != n || grad.Dim(1) != c.OutC || grad.Dim(2) != ws.oh || grad.Dim(3) != ws.ow {
		panic(fmt.Sprintf("nn: %s got gradient %v, want [%d %d %d %d]", c.name, grad.Shape(), n, c.OutC, ws.oh, ws.ow))
	}
	ws.ensurePartials(n)
	dx := tensor.New(x.Shape()...)

	gd := grad.Data()
	plane := ws.oh * ws.ow
	ws.forSamples(n, func(s *convScratch, i int) {
		src := gd[i*c.OutC*plane : (i+1)*c.OutC*plane]
		copy(s.y.whole.Data(), src)
		db := ws.db[i]
		for oc := range db {
			sum := 0.0
			for _, v := range src[oc*plane : (oc+1)*plane] {
				sum += v
			}
			db[oc] = sum
		}
		cols, dw := ws.cols[i], ws.dw[i]
		for g, wg := range ws.wGroups {
			tensor.MatMulTransBInto(dw.groups[g], s.y.groups[g], cols.groups[g])
			tensor.MatMulTransAInto(s.dcols.groups[g], wg, s.y.groups[g])
		}
		tensor.Col2ImInto(dx.Slice4D(i), s.dcols.whole, c.KH, c.KW, c.Stride, c.Pad)
	})

	gw, gb := c.Weight.Grad.Data(), c.Bias.Grad.Data()
	for i := 0; i < n; i++ {
		for j, v := range ws.dw[i].whole.Data() {
			gw[j] += v
		}
		for j, v := range ws.db[i] {
			gb[j] += v
		}
	}
	return dx
}

// convWork is a Conv2D's reusable workspace, sized by workspace for one
// input geometry and batch and kept across calls:
//
//   - per sample, the im2col matrix Forward builds and Backward reads,
//     and the sample's dW and db partials;
//   - per worker, the matmul result of Forward (reused as the gradient
//     rows gy in Backward) and the dcols matrix of Backward.
//
// A (C*KH*KW)×(OH*OW) im2col matrix holds channel group g in the
// contiguous row block g, so every per-group operand is a row-block view
// of a whole-sample matrix and one Im2ColInto/Col2ImInto per sample
// covers every group.
type convWork struct {
	key      convKey
	oh, ow   int
	wSrc     *tensor.Tensor   // the weight wGroups views
	wGroups  []*tensor.Tensor // per group: gcOut × (gcIn*KH*KW)
	cols, dw []blocked        // per sample
	db       [][]float64      // per sample: OutC
	scratch  []convScratch    // per worker
}

// convKey is everything the workspace's buffer shapes depend on.
type convKey struct{ inC, outC, kh, kw, stride, pad, groups, h, w int }

// convScratch is one worker's buffers.
type convScratch struct {
	y     blocked // OutC × (OH*OW)
	dcols blocked // (InC*KH*KW) × (OH*OW)
}

// blocked is a 2-D matrix together with views of its equal row blocks,
// one per channel group.
type blocked struct {
	whole  *tensor.Tensor
	groups []*tensor.Tensor
}

func newBlocked(rows, cols, groups int) blocked {
	whole := tensor.New(rows, cols)
	return blocked{whole: whole, groups: rowBlocks(whole, groups)}
}

// rowBlocks splits a 2-D tensor into equal row blocks, as views.
func rowBlocks(m *tensor.Tensor, blocks int) []*tensor.Tensor {
	rows, cols := m.Dim(0)/blocks, m.Dim(1)
	d := m.Data()
	views := make([]*tensor.Tensor, blocks)
	for g := range views {
		views[g] = tensor.FromSlice(d[g*rows*cols:(g+1)*rows*cols], rows, cols)
	}
	return views
}

// workspace sizes the layer's workspace for a batch of n h×w inputs. It
// reallocates only when the geometry or the batch size changes, so a
// training loop at a fixed batch reuses every buffer from its second step.
func (c *Conv2D) workspace(n, h, w int) *convWork {
	ws := &c.ws
	key := convKey{c.InC, c.OutC, c.KH, c.KW, c.Stride, c.Pad, c.Groups, h, w}
	if ws.key != key {
		*ws = convWork{key: key,
			oh: tensor.ConvOutSize(h, c.KH, c.Stride, c.Pad),
			ow: tensor.ConvOutSize(w, c.KW, c.Stride, c.Pad),
		}
	}
	if ws.wSrc != c.Weight.Value {
		ws.wSrc = c.Weight.Value
		ws.wGroups = rowBlocks(c.Weight.Value.Reshape(c.OutC, -1), c.Groups)
	}
	plane, colRows := ws.oh*ws.ow, c.InC*c.KH*c.KW
	for len(ws.scratch) < min(runtime.GOMAXPROCS(0), n) {
		ws.scratch = append(ws.scratch, convScratch{
			y:     newBlocked(c.OutC, plane, c.Groups),
			dcols: newBlocked(colRows, plane, c.Groups),
		})
	}
	ws.cols = resize(ws.cols, n, func() blocked { return newBlocked(colRows, plane, c.Groups) })
	return ws
}

// ensurePartials sizes the per-sample dW/db partials for a batch of n;
// only Backward needs them, so inference never allocates them.
func (ws *convWork) ensurePartials(n int) {
	k := ws.key
	ws.dw = resize(ws.dw, n, func() blocked {
		return newBlocked(k.outC, k.inC/k.groups*k.kh*k.kw, k.groups)
	})
	ws.db = resize(ws.db, n, func() []float64 { return make([]float64, k.outC) })
}

// resize returns s with exactly n elements, keeping the first ones and
// building the missing ones with mk.
func resize[T any](s []T, n int, mk func() T) []T {
	if len(s) > n {
		clear(s[n:])
		return s[:n]
	}
	for len(s) < n {
		s = append(s, mk())
	}
	return s
}

// forSamples runs fn for every sample 0..n-1 on up to GOMAXPROCS
// workers, worker w taking samples w, w+workers, … with its own scratch.
func (ws *convWork) forSamples(n int, fn func(s *convScratch, i int)) {
	workers := min(runtime.GOMAXPROCS(0), n, len(ws.scratch))
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(&ws.scratch[0], i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(s *convScratch, w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(s, i)
			}
		}(&ws.scratch[w], w)
	}
	wg.Wait()
}
