package snn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestIFFiresAtThreshold(t *testing.T) {
	s := newIFState(1.0, ResetBySubtraction)
	in := tensor.FromSlice([]float64{0.4}, 1)
	// 0.4, 0.8 — no spike; 1.2 — spike, residual 0.2
	for i := 0; i < 2; i++ {
		out := s.fire(in)
		if out.Data()[0] != 0 {
			t.Fatalf("premature spike at step %d", i)
		}
	}
	out := s.fire(in)
	if out.Data()[0] != 1 {
		t.Fatal("no spike at threshold crossing")
	}
	if math.Abs(s.u.Data()[0]-0.2) > 1e-12 {
		t.Fatalf("reset-by-subtraction residual = %v, want 0.2", s.u.Data()[0])
	}
}

func TestIFResetToZero(t *testing.T) {
	s := newIFState(1.0, ResetToZero)
	in := tensor.FromSlice([]float64{0.7}, 1)
	s.fire(in)
	out := s.fire(in) // 1.4 >= 1 → spike, reset to 0
	if out.Data()[0] != 1 {
		t.Fatal("no spike")
	}
	if s.u.Data()[0] != 0 {
		t.Fatalf("reset-to-zero left u = %v", s.u.Data()[0])
	}
}

func TestIFRateProportionalToInput(t *testing.T) {
	// With reset-by-subtraction and constant input I < vth, the firing
	// rate over a long window approaches I/vth — the core property that
	// makes ANN-to-SNN conversion work.
	s := newIFState(1.0, ResetBySubtraction)
	const T = 1000
	for _, current := range []float64{0.1, 0.3, 0.7} {
		s.Reset()
		in := tensor.FromSlice([]float64{current}, 1)
		spikes := 0.0
		for i := 0; i < T; i++ {
			spikes += s.fire(in).Data()[0]
		}
		rate := spikes / T
		if math.Abs(rate-current) > 0.01 {
			t.Fatalf("rate %v for input %v", rate, current)
		}
	}
}

func TestIFNeverFiresBelowZeroInput(t *testing.T) {
	s := newIFState(1.0, ResetBySubtraction)
	in := tensor.FromSlice([]float64{-0.5}, 1)
	for i := 0; i < 100; i++ {
		if s.fire(in).Data()[0] != 0 {
			t.Fatal("negative input caused a spike")
		}
	}
}

func TestDenseStep(t *testing.T) {
	w := tensor.FromSlice([]float64{1, 0, 0, 1}, 2, 2)
	d := NewDense("d", w, nil, 1.0, ResetBySubtraction)
	in := tensor.FromSlice([]float64{1, 0}, 2)
	out := d.Step(in) // current = (1, 0) → neuron 0 fires immediately
	if out.Data()[0] != 1 || out.Data()[1] != 0 {
		t.Fatalf("dense spikes = %v", out.Data())
	}
	count, neurons := d.Spikes()
	if count != 1 || neurons != 2 {
		t.Fatalf("Spikes() = %v, %v", count, neurons)
	}
}

func TestDenseBiasAccumulates(t *testing.T) {
	w := tensor.FromSlice([]float64{0}, 1, 1)
	b := tensor.FromSlice([]float64{0.5}, 1)
	d := NewDense("d", w, b, 1.0, ResetBySubtraction)
	zero := tensor.FromSlice([]float64{0}, 1)
	if d.Step(zero).Data()[0] != 0 {
		t.Fatal("spiked too early")
	}
	if d.Step(zero).Data()[0] != 1 {
		t.Fatal("bias did not integrate")
	}
}

func TestConvStepMatchesDense(t *testing.T) {
	// A 1×1 convolution on a 1×1 image is equivalent to a dense layer.
	w := tensor.FromSlice([]float64{2}, 1, 1, 1, 1)
	c := NewConv("c", w, nil, 1, 0, 1, 1.0, ResetBySubtraction)
	in := tensor.FromSlice([]float64{1}, 1, 1, 1)
	out := c.Step(in)
	if out.Data()[0] != 1 {
		t.Fatal("conv IF did not spike on suprathreshold input")
	}
}

func TestConvSpatialIntegration(t *testing.T) {
	// 2×2 all-ones kernel over a 2×2 all-ones spike map sums to 4.
	w := tensor.New(1, 1, 2, 2).Fill(1)
	c := NewConv("c", w, nil, 1, 0, 1, 3.0, ResetBySubtraction)
	in := tensor.New(1, 2, 2).Fill(1)
	out := c.Step(in)
	if out.Dim(1) != 1 || out.Dim(2) != 1 {
		t.Fatalf("conv out shape %v", out.Shape())
	}
	if out.Data()[0] != 1 {
		t.Fatal("summed current 4 ≥ vth 3 must fire")
	}
}

func TestAvgPoolIF(t *testing.T) {
	p := NewAvgPoolIF("p", 2, 2, 0.9, ResetBySubtraction)
	in := tensor.New(1, 2, 2).Fill(1) // average = 1 ≥ 0.9 → fire
	out := p.Step(in)
	if out.Size() != 1 || out.Data()[0] != 1 {
		t.Fatalf("pool IF output %v", out.Data())
	}
	p.Reset()
	half := tensor.FromSlice([]float64{1, 1, 0, 0}, 1, 2, 2) // average 0.5
	if p.Step(half).Data()[0] != 0 {
		t.Fatal("pool fired below threshold")
	}
	if p.Step(half).Data()[0] != 1 {
		t.Fatal("pool membrane did not integrate across steps")
	}
}

// TestPoolStepIntoMatchesAllocating drives the reused-buffer pool step
// (AvgPoolInto, then FireInto on one destination across timesteps)
// against the allocating AvgPool and fire on a twin IF bank, bitwise,
// with leak and refractory set so every branch of the update runs.
func TestPoolStepIntoMatchesAllocating(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 20; trial++ {
		c, h, w := 1+r.Intn(3), 2+r.Intn(7), 2+r.Intn(7)
		k := 1 + r.Intn(2)
		stride := 1 + r.Intn(2)
		oh := tensor.ConvOutSize(h, k, stride, 0)
		ow := tensor.ConvOutSize(w, k, stride, 0)
		ref, got := newIFState(0.8, ResetBySubtraction), newIFState(0.8, ResetBySubtraction)
		ref.Leak, got.Leak = 0.9, 0.9
		ref.Refractory, got.Refractory = 1, 1
		pooled := tensor.New(c, oh, ow).Fill(math.NaN())
		spikes := tensor.New(c, oh, ow).Fill(-1)
		for step := 0; step < 6; step++ {
			in := tensor.New(c, h, w)
			for i := range in.Data() {
				if r.Bernoulli(0.5) {
					in.Data()[i] = 1
				}
			}
			want := AvgPool(in, k, stride)
			AvgPoolInto(pooled, in, k, stride)
			wantSpikes := ref.fire(want)
			got.FireInto(spikes, pooled)
			for i := range want.Data() {
				if math.Float64bits(pooled.Data()[i]) != math.Float64bits(want.Data()[i]) ||
					spikes.Data()[i] != wantSpikes.Data()[i] {
					t.Fatalf("trial %d step %d elem %d: pooled %v spikes %v, want %v / %v",
						trial, step, i, pooled.Data()[i], spikes.Data()[i], want.Data()[i], wantSpikes.Data()[i])
				}
			}
		}
	}
}

func TestFlattenStateless(t *testing.T) {
	f := NewFlatten("f")
	in := tensor.New(2, 3, 4)
	out := f.Step(in)
	if out.NDim() != 1 || out.Size() != 24 {
		t.Fatalf("flatten shape %v", out.Shape())
	}
}

func TestOutputAccumulates(t *testing.T) {
	w := tensor.FromSlice([]float64{1, 1}, 1, 2)
	o := NewOutput("o", w, nil)
	in := tensor.FromSlice([]float64{1, 0}, 2)
	o.Step(in)
	out := o.Step(in)
	if out.Data()[0] != 2 {
		t.Fatalf("output potential = %v, want 2", out.Data()[0])
	}
	o.Reset()
	if o.Potentials() != nil {
		t.Fatal("Potentials after Reset should be nil")
	}
}

func TestPoissonEncoderRate(t *testing.T) {
	r := rng.New(1)
	enc := NewPoissonEncoder(1.0, r)
	img := tensor.FromSlice([]float64{0.25}, 1)
	const T = 20000
	spikes := 0.0
	for i := 0; i < T; i++ {
		spikes += enc.Encode(img).Data()[0]
	}
	rate := spikes / T
	if math.Abs(rate-0.25) > 0.01 {
		t.Fatalf("Poisson rate %v for intensity 0.25", rate)
	}
}

func TestPoissonEncoderBinary(t *testing.T) {
	r := rng.New(2)
	enc := NewPoissonEncoder(2.0, r)
	img := tensor.FromSlice([]float64{0, 0.5, 1.0}, 3)
	for i := 0; i < 100; i++ {
		s := enc.Encode(img)
		for _, v := range s.Data() {
			if v != 0 && v != 1 {
				t.Fatalf("non-binary spike %v", v)
			}
		}
		if s.Data()[0] != 0 {
			t.Fatal("zero intensity spiked")
		}
		if s.Data()[2] != 1 {
			t.Fatal("saturated intensity must always spike")
		}
	}
}

func TestNetworkRun(t *testing.T) {
	// Two-input network: output class 0 integrates input 0, class 1
	// integrates input 1. A bright pixel 0 must win.
	r := rng.New(3)
	w := tensor.FromSlice([]float64{1, 0, 0, 1}, 2, 2)
	net := NewNetwork("toy",
		NewDense("hidden", tensor.FromSlice([]float64{1, 0, 0, 1}, 2, 2), nil, 0.5, ResetBySubtraction),
		NewOutput("out", w, nil),
	)
	img := tensor.FromSlice([]float64{0.9, 0.1}, 2)
	res := net.Run(img, 200, NewPoissonEncoder(1.0, r))
	if res.Predict() != 0 {
		t.Fatalf("predicted %d, want 0 (potentials %v)", res.Predict(), res.Output.Data())
	}
	if res.InputSpikes <= 0 {
		t.Fatal("no input spikes recorded")
	}
	if len(res.LayerSpikes) != 2 {
		t.Fatalf("layer spikes %v", res.LayerSpikes)
	}
	act := res.ActivityPerLayer()
	if len(act) != 2 { // Dense + Output (output has neurons but no spikes)
		t.Fatalf("activity entries: %d", len(act))
	}
	if act[0] <= 0 || act[0] > 1 {
		t.Fatalf("hidden activity %v out of (0,1]", act[0])
	}
}

func TestNetworkResetClearsState(t *testing.T) {
	r := rng.New(4)
	net := NewNetwork("toy",
		NewDense("d", tensor.FromSlice([]float64{1}, 1, 1), nil, 1.0, ResetBySubtraction),
		NewOutput("o", tensor.FromSlice([]float64{1}, 1, 1), nil),
	)
	img := tensor.FromSlice([]float64{0.8}, 1)
	a := net.Run(img, 100, NewPoissonEncoder(1.0, rng.New(9)))
	b := net.Run(img, 100, NewPoissonEncoder(1.0, rng.New(9)))
	if a.Output.Data()[0] != b.Output.Data()[0] {
		t.Fatal("Run is not idempotent given identical encoders — state leaked")
	}
	_ = r
}

func TestStatefulRates(t *testing.T) {
	r := rng.New(5)
	net := NewNetwork("toy",
		NewDense("d", tensor.FromSlice([]float64{1}, 1, 1), nil, 1.0, ResetBySubtraction),
		NewOutput("o", tensor.FromSlice([]float64{1}, 1, 1), nil),
	)
	img := tensor.FromSlice([]float64{0.5}, 1)
	const T = 500
	net.Run(img, T, NewPoissonEncoder(1.0, r))
	rates := net.StatefulRates(T)
	if len(rates) != 1 {
		t.Fatalf("rates count %d", len(rates))
	}
	// Dense neuron receives ~0.5 current per step → rate ≈ 0.5.
	if math.Abs(rates[0].Data()[0]-0.5) > 0.08 {
		t.Fatalf("dense rate %v", rates[0].Data()[0])
	}
}
