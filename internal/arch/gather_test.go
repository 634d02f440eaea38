package arch

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/spikeplane"
	"repro/internal/tensor"
)

// TestConvGatherMatchesIm2Col is the differential property test of the
// engine's receptive-field gather: for random geometries (rectangular
// kernels, stride 1–2, pad 0–2, dense and depthwise grouping), every
// gathered window must equal the matching column of tensor.Im2Col over
// the group's channels bit for bit — padding as +0, and input values
// (including −0) copied verbatim.
func TestConvGatherMatchesIm2Col(t *testing.T) {
	r := rng.New(23)
	for trial := 0; trial < 300; trial++ {
		c := 1 + r.Intn(4)
		h, w := 1+r.Intn(9), 1+r.Intn(9)
		kh, kw := 1+r.Intn(4), 1+r.Intn(4)
		stride, pad := 1+r.Intn(2), r.Intn(3)
		if h+2*pad < kh || w+2*pad < kw {
			continue
		}
		groups := 1
		if trial%2 == 1 {
			groups = c
		}
		x := tensor.New(c, h, w)
		xd := x.Data()
		for i := range xd {
			switch r.Intn(4) {
			case 0:
				xd[i] = 0
			case 1:
				xd[i] = math.Copysign(0, -1)
			case 2:
				xd[i] = 1
			default:
				xd[i] = r.NormFloat64()
			}
		}
		geo := convGeom{h: h, w: w, kh: kh, kw: kw, stride: stride, pad: pad}
		oh := tensor.ConvOutSize(h, kh, stride, pad)
		ow := tensor.ConvOutSize(w, kw, stride, pad)
		gc := c / groups
		rows := gc * kh * kw
		win := make([]float64, rows)
		for g := 0; g < groups; g++ {
			sub := tensor.FromSlice(xd[g*gc*h*w:(g+1)*gc*h*w], gc, h, w)
			cols := tensor.Im2Col(sub, kh, kw, stride, pad)
			for pos := 0; pos < oh*ow; pos++ {
				for i := range win {
					win[i] = math.NaN() // every row must be written
				}
				geo.gather(win, xd, g*gc, pos/ow, pos%ow)
				for row, v := range win {
					if want := cols.At(row, pos); math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("c=%d h=%d w=%d k=%dx%d stride=%d pad=%d groups=%d: group %d pos %d row %d = %v, Im2Col %v",
							c, h, w, kh, kw, stride, pad, groups, g, pos, row, v, want)
					}
				}
			}
		}
	}
}

// refConvStep is the im2col formulation of one conv-stage timestep on
// the dense walk: unfold each group's channels with tensor.Im2Col, read
// column pos through the bank's coreStep, and place the bank's spike k
// at (k, pos/ow, pos%ow). It is the oracle for the window gather and
// the output placement of convStep.
func refConvStep(env *execEnv, hw *stageHW, sr *stageRun, x *tensor.Tensor, res *RunResult) (*tensor.Tensor, error) {
	h, w := x.Dim(1), x.Dim(2)
	oh := tensor.ConvOutSize(h, hw.kh, hw.stride, hw.pad)
	ow := tensor.ConvOutSize(w, hw.kw, hw.stride, hw.pad)
	out := tensor.New(hw.outC, oh, ow)
	gcIn, gcOut := hw.inC/hw.groups, hw.outC/hw.groups
	for g := 0; g < hw.groups; g++ {
		sub := tensor.FromSlice(x.Data()[g*gcIn*h*w:(g+1)*gcIn*h*w], gcIn, h, w)
		cols := tensor.Im2Col(sub, hw.kh, hw.kw, hw.stride, hw.pad)
		col := make([]float64, cols.Dim(0))
		for pos := 0; pos < oh*ow; pos++ {
			for r := range col {
				col[r] = cols.At(r, pos)
			}
			bankPos := pos
			if hw.groups > 1 {
				bankPos = pos*hw.groups + g
			}
			spikes, err := env.coreStep(hw.snnCore, sr, bankPos, col, nil, biasData(hw.bias), res)
			if err != nil {
				return nil, err
			}
			for k := g * gcOut; k < (g+1)*gcOut; k++ {
				out.Set(spikes[k], k, pos/ow, pos%ow)
			}
		}
	}
	res.NoCPackets++
	res.NoCHops += env.hops
	return out, nil
}

// TestConvStepMatchesIm2ColReference steps both conv stages of the conv
// fixture (depthwise 3×3 pad 1; dense 3×2 stride 2 pad 0) through the
// production stepStage on the dense and the event walk and through
// refConvStep, from identical replica banks over random spike maps.
// Every output map must match the reference bit for bit, and the dense
// walk's counters exactly.
func TestConvStepMatchesIm2ColReference(t *testing.T) {
	c, _ := convFixture(t)
	sess := compileEventSession(t, c, WithMode(ModeSNN), WithTimesteps(1), WithInputShape(4, 8, 8))
	r := rng.New(29)
	for i, hw := range sess.snnStages {
		if hw.kind != "conv" {
			continue
		}
		ref, dense, event := sess.newRunState(), sess.newRunState(), sess.newRunState()
		envRef := &execEnv{hops: sess.engineHops}
		envDense := &execEnv{hops: sess.engineHops}
		envEvent := &execEnv{hops: sess.engineHops, event: true}
		var resRef, resDense, resEvent RunResult
		var pl spikeplane.Plane
		for step := 0; step < 8; step++ {
			x := tensor.New(hw.inC, 8, 8)
			for j := range x.Data() {
				if r.Bernoulli(0.3) {
					x.Data()[j] = 1
				}
			}
			want, err := refConvStep(envRef, hw, ref.stages[i], x, &resRef)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := envDense.stepStage(hw, dense.stages[i], x, nil, &resDense)
			if err != nil {
				t.Fatal(err)
			}
			pl.Pack(x.Data())
			gotEvent, _, err := envEvent.stepStage(hw, event.stages[i], x, &pl, &resEvent)
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range want.Data() {
				if got.Data()[j] != v || gotEvent.Data()[j] != v {
					t.Fatalf("stage %s step %d elem %d: dense %v event %v, reference %v",
						hw.name, step, j, got.Data()[j], gotEvent.Data()[j], v)
				}
			}
		}
		resRef.Output, resDense.Output = nil, nil
		if resDense != resRef || envDense.cross != envRef.cross {
			t.Fatalf("stage %s: dense counters %+v %+v, reference %+v %+v",
				hw.name, resDense, envDense.cross, resRef, envRef.cross)
		}
		if resEvent.Spikes != resRef.Spikes {
			t.Fatalf("stage %s: event walk emitted %d spikes, reference %d", hw.name, resEvent.Spikes, resRef.Spikes)
		}
	}
}

// TestANNConvMatchesIm2ColReference is the ANN-mode counterpart: every
// conv stage of the conv fixture must produce, through annStage, the
// output map the im2col formulation gives — each group unfolded with
// tensor.Im2Col, its columns read through annExec, and row k of
// position pos placed at (k, pos/ow, pos%ow) — bit for bit, with equal
// counters.
func TestANNConvMatchesIm2ColReference(t *testing.T) {
	c, _ := convFixture(t)
	sess := compileEventSession(t, c, WithMode(ModeANN), WithInputShape(4, 8, 8))
	r := rng.New(37)
	for _, hw := range sess.annStages {
		if hw.kind != "conv" {
			continue
		}
		x := tensor.New(hw.gcIn*hw.groups, 8, 8)
		for j := range x.Data() {
			x.Data()[j] = r.Float64()
		}
		oh := tensor.ConvOutSize(8, hw.kh, hw.stride, hw.pad)
		ow := tensor.ConvOutSize(8, hw.kw, hw.stride, hw.pad)
		want := tensor.New(hw.outC, oh, ow)
		gcOut := hw.outC / hw.groups
		envRef, env := &execEnv{}, &execEnv{}
		var resRef, res RunResult
		for g := 0; g < hw.groups; g++ {
			sub := tensor.FromSlice(x.Data()[g*hw.gcIn*64:(g+1)*hw.gcIn*64], hw.gcIn, 8, 8)
			cols := tensor.Im2Col(sub, hw.kh, hw.kw, hw.stride, hw.pad)
			inputs := make([][]float64, oh*ow)
			for pos := range inputs {
				inputs[pos] = make([]float64, cols.Dim(0))
				for row := range inputs[pos] {
					inputs[pos][row] = cols.At(row, pos)
				}
			}
			sums, err := envRef.annExec(hw.core, inputs, hw.bias, &resRef)
			if err != nil {
				t.Fatal(err)
			}
			for pos, row := range sums {
				for k := g * gcOut; k < (g+1)*gcOut; k++ {
					want.Set(row[k], k, pos/ow, pos%ow)
				}
			}
		}
		got, err := env.annStage(hw, x, &res)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range want.Data() {
			if math.Float64bits(got.Data()[j]) != math.Float64bits(v) {
				t.Fatalf("stage %s elem %d: %v, reference %v", hw.name, j, got.Data()[j], v)
			}
		}
		if res != resRef || env.cross != envRef.cross {
			t.Fatalf("stage %s: counters %+v %+v, reference %+v %+v", hw.name, res, env.cross, resRef, envRef.cross)
		}
	}
}
