package nn_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/train"
)

// oracleConv is the sequential reference for Conv2D: the per-sample,
// per-group loop the layer ran before it gained its workspace and its
// sample-parallel workers, kept only here as the test oracle. It shares
// the wrapped layer's parameters and geometry and replaces its Forward
// and Backward.
type oracleConv struct {
	*nn.Conv2D
	lastInput *tensor.Tensor
	lastCols  [][]*tensor.Tensor // per-sample, per-group column matrices
}

func (c *oracleConv) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh := tensor.ConvOutSize(h, c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutSize(w, c.KW, c.Stride, c.Pad)
	out := tensor.New(n, c.OutC, oh, ow)
	gcIn, gcOut := c.InC/c.Groups, c.OutC/c.Groups
	wFlat := c.Weight.Value.Reshape(c.OutC, gcIn*c.KH*c.KW)
	c.lastInput = x
	c.lastCols = make([][]*tensor.Tensor, n)
	for i := 0; i < n; i++ {
		img := x.Slice4D(i)
		c.lastCols[i] = make([]*tensor.Tensor, c.Groups)
		for g := 0; g < c.Groups; g++ {
			cols := tensor.Im2Col(channels(img, g*gcIn, gcIn), c.KH, c.KW, c.Stride, c.Pad)
			c.lastCols[i][g] = cols
			res := tensor.MatMul(rows(wFlat, g*gcOut, gcOut), cols)
			dd := out.Slice4D(i).Data()
			for oc := 0; oc < gcOut; oc++ {
				bias := c.Bias.Value.Data()[g*gcOut+oc]
				dstBase := (g*gcOut + oc) * oh * ow
				for j, v := range res.Row(oc).Data() {
					dd[dstBase+j] = v + bias
				}
			}
		}
	}
	return out
}

func (c *oracleConv) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.lastInput
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := grad.Dim(2), grad.Dim(3)
	gcIn, gcOut := c.InC/c.Groups, c.OutC/c.Groups
	wFlat := c.Weight.Value.Reshape(c.OutC, gcIn*c.KH*c.KW)
	gwFlat := c.Weight.Grad.Reshape(c.OutC, gcIn*c.KH*c.KW)
	dx := tensor.New(x.Shape()...)
	for i := 0; i < n; i++ {
		gradImg, dxImg := grad.Slice4D(i), dx.Slice4D(i)
		for g := 0; g < c.Groups; g++ {
			gy := tensor.New(gcOut, oh*ow)
			for oc := 0; oc < gcOut; oc++ {
				src := gradImg.Data()[(g*gcOut+oc)*oh*ow : (g*gcOut+oc+1)*oh*ow]
				copy(gy.Row(oc).Data(), src)
				s := 0.0
				for _, v := range src {
					s += v
				}
				c.Bias.Grad.Data()[g*gcOut+oc] += s
			}
			dwg := tensor.MatMulTransB(gy, c.lastCols[i][g])
			for oc := 0; oc < gcOut; oc++ {
				dst := gwFlat.Row(g*gcOut + oc).Data()
				for j, v := range dwg.Row(oc).Data() {
					dst[j] += v
				}
			}
			dcols := tensor.MatMulTransA(rows(wFlat, g*gcOut, gcOut), gy)
			dimg := tensor.Col2Im(dcols, gcIn, h, w, c.KH, c.KW, c.Stride, c.Pad)
			dd := dxImg.Data()
			for j, v := range dimg.Data() {
				dd[g*gcIn*h*w+j] += v
			}
		}
	}
	return dx
}

// channels returns channels [start, start+count) of a C×H×W tensor.
func channels(img *tensor.Tensor, start, count int) *tensor.Tensor {
	h, w := img.Dim(1), img.Dim(2)
	return tensor.FromSlice(img.Data()[start*h*w:(start+count)*h*w], count, h, w)
}

// rows returns rows [start, start+count) of a 2-D tensor.
func rows(m *tensor.Tensor, start, count int) *tensor.Tensor {
	cols := m.Dim(1)
	return tensor.FromSlice(m.Data()[start*cols:(start+count)*cols], count, cols)
}

// tinySpec is an 8×8 three-channel dataset small enough for the race
// detector.
var tinySpec = dataset.Spec{Name: "tiny", Classes: 5, Channels: 3, Size: 8, Noise: 0.1, Jitter: 1}

// parallelNet builds the fixture network — a dense 3×3 pad-1 conv, a
// depthwise stride-2 conv, a grouped conv and a Linear head — with the
// same initialisation on every call. With oracle set, every conv runs
// through oracleConv.
func parallelNet(oracle bool) *nn.Network {
	r := rng.New(11)
	layers := []nn.Layer{
		nn.NewConv2D("dense", 3, 8, 3, 3, 1, 1, 1, r),
		nn.NewReLU("dense.relu"),
		nn.NewConv2D("dw", 8, 8, 3, 3, 2, 1, 8, r),
		nn.NewReLU("dw.relu"),
		nn.NewConv2D("grouped", 8, 12, 3, 3, 1, 1, 4, r),
		nn.NewReLU("grouped.relu"),
		nn.NewFlatten("flat"),
		nn.NewLinear("fc", 12*4*4, tinySpec.Classes, r),
	}
	if oracle {
		for i, l := range layers {
			if c, ok := l.(*nn.Conv2D); ok {
				layers[i] = &oracleConv{Conv2D: c}
			}
		}
	}
	return nn.NewNetwork("parallel-bitwise", layers...)
}

func requireBitwise(t *testing.T, tag string, want, got *tensor.Tensor) {
	t.Helper()
	if !tensor.SameShape(want, got) {
		t.Fatalf("%s: shape %v, oracle %v", tag, got.Shape(), want.Shape())
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d = %v, oracle %v", tag, i, g, w)
		}
	}
}

func requireSameParams(t *testing.T, tag string, ref, net *nn.Network, grads bool) {
	t.Helper()
	rp, np := ref.Params(), net.Params()
	for i := range rp {
		requireBitwise(t, tag+" "+rp[i].Name, rp[i].Value, np[i].Value)
		if grads {
			requireBitwise(t, tag+" "+rp[i].Name+".grad", rp[i].Grad, np[i].Grad)
		}
	}
}

// TestConv2DParallelBitwise trains the fixture network with the
// production Conv2D and with the sequential oracle side by side and
// requires every layer output, every input and parameter gradient and
// every post-SGD weight to match bit for bit, at GOMAXPROCS 1, 4 and
// NumCPU. A final train.Run pass — whose evaluation batches change the
// batch size and so resize the workspace — must leave identical weights
// too. make train-check runs it under the race detector.
func TestConv2DParallelBitwise(t *testing.T) {
	data := dataset.Generate(tinySpec, 14, 5)
	cfg := train.Config{Epochs: 2, BatchSize: 6, LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}
	for _, procs := range []int{1, 4, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			net, ref := parallelNet(false), parallelNet(true)
			opt := train.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
			refOpt := train.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
			for step, start := 0, 0; start+cfg.BatchSize <= data.Len(); step, start = step+1, start+cfg.BatchSize {
				x, y := data.Batch(start, cfg.BatchSize)
				outs, refOuts := net.ForwardCapture(x, true), ref.ForwardCapture(x, true)
				for l := range refOuts {
					requireBitwise(t, fmt.Sprintf("step %d %s forward", step, ref.Layers()[l].Name()), refOuts[l], outs[l])
				}
				_, grad := nn.SoftmaxCrossEntropy(outs[len(outs)-1], y)
				_, refGrad := nn.SoftmaxCrossEntropy(refOuts[len(refOuts)-1], y)
				net.ZeroGrad()
				ref.ZeroGrad()
				requireBitwise(t, fmt.Sprintf("step %d dx", step), ref.Backward(refGrad), net.Backward(grad))
				requireSameParams(t, fmt.Sprintf("step %d", step), ref, net, true)
				opt.Step(net.Params())
				refOpt.Step(ref.Params())
				requireSameParams(t, fmt.Sprintf("step %d sgd", step), ref, net, false)
			}
			res, refRes := train.Run(net, data, data, cfg), train.Run(ref, data, data, cfg)
			requireSameParams(t, "train.Run", ref, net, true)
			if res != refRes {
				t.Fatalf("train.Run result %+v, oracle %+v", res, refRes)
			}
		})
	}
}

// TestConv2DSteadyStateAllocs pins the conv workspace: once a warm-up
// step has sized it, a forward+backward step of the fixture's three
// convs and their ReLUs on a fixed batch of 6 allocates only the
// returned activation and gradient tensors, one image view per sample
// and the worker goroutines. The per-sample, per-group loop allocated
// 2926 times per step here (im2col and matmul results, gradient rows and
// row views, group by group); the workspace brings it to 117 at
// GOMAXPROCS 2. The ceiling sits an order of magnitude below the
// per-group scaling.
func TestConv2DSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	net := parallelNet(false)
	convs := net.Layers()[:6]
	x, _ := dataset.Generate(tinySpec, 6, 9).Batch(0, 6)
	step := func() {
		act := x
		for _, l := range convs {
			act = l.Forward(act, true)
		}
		g := act
		for i := len(convs) - 1; i >= 0; i-- {
			g = convs[i].Backward(g)
		}
	}
	step()
	const ceiling = 300
	avg := testing.AllocsPerRun(5, step)
	t.Logf("allocs per step: %.0f", avg)
	if avg > ceiling {
		t.Fatalf("conv forward+backward allocated %.0f times per step, ceiling %d (per-group loop: 2926)", avg, ceiling)
	}
}
