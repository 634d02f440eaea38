package arch

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/convert"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/train"
)

func randMatrix(r *rng.Rand, rows, cols int, scale float64) *tensor.Tensor {
	m := tensor.New(rows, cols)
	for i := range m.Data() {
		m.Data()[i] = (2*r.Float64() - 1) * scale
	}
	return m
}

func idealDot(w *tensor.Tensor, x []float64) []float64 {
	out := make([]float64, w.Dim(1))
	for c := 0; c < w.Dim(1); c++ {
		for r := 0; r < w.Dim(0); r++ {
			out[c] += x[r] * w.At(r, c)
		}
	}
	return out
}

// readTile reads one input through a programmed super-tile on the
// production read path (EvaluateReadInto), noiseless.
func readTile(t *testing.T, st *SuperTile, in []float64) []float64 {
	t.Helper()
	out := make([]float64, st.cols)
	var sc EvalScratch
	if err := st.EvaluateReadInto(out, in, nil, nil, nil, &sc); err != nil {
		t.Fatal(err)
	}
	return out
}

// coreHarness steps one programmed SNN core through the session engine's
// stepper (execEnv.coreStep), against a replica bank built by the same
// newRunState a session run uses.
type coreHarness struct {
	core *SNNCore
	env  execEnv
	sr   *stageRun
	res  RunResult
}

// newCoreHarness bakes the core's kernels, as Compile does, and lays
// out one run's state for it.
func newCoreHarness(core *SNNCore) *coreHarness {
	core.ST.Bake()
	sess := &Session{snnStages: []*stageHW{{kind: "dense", snnCore: core}}}
	return &coreHarness{core: core, sr: sess.newRunState().stages[0]}
}

// step advances output position 0 by one timestep and returns the spike
// vector.
func (h *coreHarness) step(t *testing.T, in []float64) []float64 {
	t.Helper()
	out, err := h.env.coreStep(h.core, h.sr, 0, in, nil, nil, &h.res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// membrane returns the normalized membrane potential (wall position) of
// position 0's neuron k.
func (h *coreHarness) membrane(k int) float64 { return h.sr.neurons[k].Membrane() }

func TestSuperTileSingleAC(t *testing.T) {
	r := rng.New(1)
	st := NewSuperTile(device.DefaultParams(), crossbar.Config{}, nil)
	w := randMatrix(r, 27, 64, 1) // VGG conv1-like
	if err := st.Program(w, 1); err != nil {
		t.Fatal(err)
	}
	if st.NULevel() != mapping.LevelH0 {
		t.Fatalf("level %v, want H0", st.NULevel())
	}
	x := make([]float64, 27)
	for i := range x {
		x[i] = r.Float64()
	}
	got := readTile(t, st, x)
	want := idealDot(w, x)
	bound := 1.0 / (2 * 15) * 27 // quantization bound
	for c := range got {
		if math.Abs(got[c]-want[c]) > bound {
			t.Fatalf("col %d: %v vs %v", c, got[c], want[c])
		}
	}
}

func TestSuperTileHierarchySummation(t *testing.T) {
	// An Rf spanning multiple ACs must produce the same dot product as a
	// monolithic array — the current-domain summation claim of §IV-B3.
	r := rng.New(2)
	st := NewSuperTile(device.DefaultParams(), crossbar.Config{}, nil)
	const rf, k = 600, 100 // stack = 5 → H2
	w := randMatrix(r, rf, k, 1)
	if err := st.Program(w, 1); err != nil {
		t.Fatal(err)
	}
	if st.NULevel() != mapping.LevelH2 {
		t.Fatalf("level %v, want H2", st.NULevel())
	}
	x := make([]float64, rf)
	for i := range x {
		x[i] = r.Float64()
	}
	got := readTile(t, st, x)
	want := idealDot(w, x)
	bound := 1.0 / (2 * 15) * rf
	for c := range got {
		if math.Abs(got[c]-want[c]) > bound {
			t.Fatalf("col %d: %v vs %v (bound %v)", c, got[c], want[c], bound)
		}
	}
}

func TestSuperTileRejectsOversized(t *testing.T) {
	st := NewSuperTile(device.DefaultParams(), crossbar.Config{}, nil)
	if err := st.Program(tensor.New(3000, 10), 1); err == nil {
		t.Fatal("Rf > 16M accepted")
	}
	if err := st.Program(tensor.New(1000, 1000), 1); err == nil {
		t.Fatal("over-capacity layer accepted")
	}
}

func TestSuperTileUtilization(t *testing.T) {
	st := NewSuperTile(device.DefaultParams(), crossbar.Config{}, nil)
	if err := st.Program(tensor.New(27, 64).Fill(0.5), 1); err != nil {
		t.Fatal(err)
	}
	want := 27.0 * 64 / (128 * 128)
	if got := st.Utilization(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("utilization %v, want %v", got, want)
	}
}

func TestANNCoreSaturation(t *testing.T) {
	st := NewANNCore(device.DefaultParams(), crossbar.Config{}, 1.0, nil)
	w := tensor.New(4, 2)
	w.Set(1, 0, 0)
	w.Set(1, 1, 0)
	w.Set(1, 2, 0)
	w.Set(-1, 0, 1)
	if err := st.Program(w, 1); err != nil {
		t.Fatal(err)
	}
	var env execEnv
	var res RunResult
	out, err := env.annExec(st, [][]float64{{1, 1, 1, 0}}, nil, &res)
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != 1 {
		t.Fatalf("column 0 should saturate at 1, got %v", out[0][0])
	}
	if out[0][1] != 0 {
		t.Fatalf("column 1 should rectify to 0, got %v", out[0][1])
	}
	if res.Cycles != 3 {
		t.Fatalf("pipeline cycles %d, want 3 (Fig. 8)", res.Cycles)
	}
}

func TestSNNCoreIntegrateAndFire(t *testing.T) {
	core := NewSNNCore(device.DefaultParams(), crossbar.Config{}, 1.0, nil)
	w := tensor.New(1, 1)
	w.Set(0.4, 0, 0) // quantized to 6/15 = 0.4
	if err := core.Program(w, 1, 1); err != nil {
		t.Fatal(err)
	}
	h := newCoreHarness(core)
	// 0.4 increments: fires on the 3rd step (1.2 ≥ 1).
	fires := 0
	fireStep := -1
	for i := 0; i < 5; i++ {
		if out := h.step(t, []float64{1}); out[0] == 1 {
			fires++
			if fireStep < 0 {
				fireStep = i
			}
		}
	}
	if fires == 0 {
		t.Fatal("neuron never fired")
	}
	if fireStep != 2 {
		t.Fatalf("first fire at step %d, want 2", fireStep)
	}
}

func TestSNNCoreMembranePersistsAcrossIdleSteps(t *testing.T) {
	// §IV-B4: membrane persists in the device with no refresh.
	core := NewSNNCore(device.DefaultParams(), crossbar.Config{}, 1.0, nil)
	w := tensor.New(1, 1)
	w.Set(0.4, 0, 0)
	if err := core.Program(w, 1, 1); err != nil {
		t.Fatal(err)
	}
	h := newCoreHarness(core)
	h.step(t, []float64{1})
	m1 := h.membrane(0)
	if m1 <= 0 {
		t.Fatal("no integration")
	}
	for i := 0; i < 10; i++ {
		h.step(t, []float64{0}) // no spikes: wall must hold
	}
	if h.membrane(0) != m1 {
		t.Fatalf("membrane decayed: %v → %v", m1, h.membrane(0))
	}
}

func TestSNNCoreInhibition(t *testing.T) {
	core := NewSNNCore(device.DefaultParams(), crossbar.Config{}, 1.0, nil)
	w := tensor.New(2, 1)
	w.Set(0.5, 0, 0)
	w.Set(-0.5, 1, 0)
	if err := core.Program(w, 1, 1); err != nil {
		t.Fatal(err)
	}
	h := newCoreHarness(core)
	h.step(t, []float64{1, 0})
	up := h.membrane(0)
	h.step(t, []float64{0, 1})
	down := h.membrane(0)
	if down >= up {
		t.Fatalf("inhibitory input did not lower membrane: %v → %v", up, down)
	}
}

func TestSNNCoreRateTracksInput(t *testing.T) {
	core := NewSNNCore(device.DefaultParams(), crossbar.Config{}, 1.0, nil)
	w := tensor.New(1, 1)
	w.Set(1.0, 0, 0)
	if err := core.Program(w, 1, 1); err != nil {
		t.Fatal(err)
	}
	h := newCoreHarness(core)
	r := rng.New(9)
	const T = 600
	const rate = 0.3
	spikes := 0.0
	for i := 0; i < T; i++ {
		in := 0.0
		if r.Bernoulli(rate) {
			in = 1
		}
		spikes += h.step(t, []float64{in})[0]
	}
	got := spikes / T
	if math.Abs(got-rate) > 0.05 {
		t.Fatalf("hardware rate %v for input rate %v", got, rate)
	}
}

func TestFitsInCore(t *testing.T) {
	if !FitsInCore(2048, 128) {
		t.Fatal("16M×M must fit")
	}
	if FitsInCore(2049, 128) {
		t.Fatal("Rf beyond 16M must not fit")
	}
	if FitsInCore(1024, 512) { // 8 stacks × 4 sets = 32 > 16
		t.Fatal("over-capacity must not fit")
	}
}

// Shared trained fixture for chip-level tests.
var (
	chipOnce sync.Once
	chipConv *convert.Converted
	chipANN  *nn.Network
	chipTest *dataset.Dataset
)

func chipFixture(t testing.TB) (*convert.Converted, *dataset.Dataset) {
	t.Helper()
	chipOnce.Do(func() {
		tr, te := dataset.TrainTest(dataset.MNISTLike, 400, 100, 77)
		chipTest = te
		chipANN = models.NewMLP3(1, 16, 10, rng.New(5))
		cfg := train.DefaultConfig()
		cfg.Epochs = 6
		train.Run(chipANN, tr, te, cfg)
		var err error
		chipConv, err = convert.Convert(chipANN, tr, convert.DefaultConfig())
		if err != nil {
			panic(err)
		}
	})
	return chipConv, chipTest
}

// runOnChip compiles c onto chip once and runs imgs through the session
// in one batch.
func runOnChip(t *testing.T, chip *Chip, c *convert.Converted, imgs []*tensor.Tensor, opts ...Option) []*RunResult {
	t.Helper()
	sess, err := chip.Compile(c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.RunBatch(context.Background(), imgs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestChipRunSNNClassifies(t *testing.T) {
	c, te := chipFixture(t)
	chip := NewChip(device.DefaultParams(), crossbar.Config{}, nil)
	correct := 0
	const n, T = 25, 80
	results := runOnChip(t, chip, c, sessionImages(t, te, n), WithMode(ModeSNN), WithTimesteps(T), WithSeed(3))
	for i, res := range results {
		if _, label := te.Sample(i); res.Prediction == label {
			correct++
		}
		if res.Spikes <= 0 || res.Cycles <= 0 {
			t.Fatalf("no hardware activity: %+v", res)
		}
	}
	acc := float64(correct) / n
	if acc < 0.5 {
		t.Fatalf("hardware SNN accuracy %.2f too low", acc)
	}
}

func TestChipRunANNMatchesSoftware(t *testing.T) {
	c, te := chipFixture(t)
	chip := NewChip(device.DefaultParams(), crossbar.Config{}, nil)
	swAcc := 0
	hwAcc := 0
	const n = 30
	results := runOnChip(t, chip, c, sessionImages(t, te, n), WithMode(ModeANN))
	for i, res := range results {
		img, label := te.Sample(i)
		if res.Prediction == label {
			hwAcc++
		}
		batch := img.Reshape(1, img.Size())
		logits := c.Folded.Forward(batch.Reshape(1, 1, 16, 16), false)
		if logits.Row(0).ArgMax() == label {
			swAcc++
		}
	}
	if hwAcc < swAcc-6 {
		t.Fatalf("hardware ANN (%d/%d) trails software (%d/%d) too much", hwAcc, n, swAcc, n)
	}
}

func TestChipSNNWithNoiseStillWorks(t *testing.T) {
	// §IV-D resilience: device read noise should not destroy inference.
	c, te := chipFixture(t)
	chip := NewChip(device.DefaultParams(), crossbar.Config{ReadNoiseSigma: 0.05}, rng.New(11))
	correct := 0
	const n, T = 20, 80
	results := runOnChip(t, chip, c, sessionImages(t, te, n), WithMode(ModeSNN), WithTimesteps(T), WithSeed(13))
	for i, res := range results {
		if _, label := te.Sample(i); res.Prediction == label {
			correct++
		}
	}
	if float64(correct)/n < 0.4 {
		t.Fatalf("noisy hardware accuracy %.2f collapsed", float64(correct)/n)
	}
}

func TestChipRunsGroupedConv(t *testing.T) {
	// Depthwise (grouped) convolutions map block-diagonally onto the
	// crossbar; the chip runner must execute them in SNN mode.
	r := rng.New(19)
	net := nn.NewNetwork("dw",
		nn.NewConv2D("dw", 4, 4, 3, 3, 1, 1, 4, r),
		nn.NewReLU("relu"),
		nn.NewFlatten("flat"),
		nn.NewLinear("fc", 4*8*8, 4, r),
	)
	d := dataset.Generate(dataset.Spec{Name: "x", Classes: 4, Channels: 4, Size: 8, Noise: 0.1, Jitter: 1}, 16, 1)
	conv, err := convert.Convert(net, d, convert.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	chip := NewChip(device.DefaultParams(), crossbar.Config{}, nil)
	img, _ := d.Sample(0)
	res := runOnChip(t, chip, conv, []*tensor.Tensor{img},
		WithMode(ModeSNN), WithTimesteps(20), WithInputShape(img.Shape()...))[0]
	if res.Output.Size() != 4 {
		t.Fatalf("output size %d", res.Output.Size())
	}
	if res.Cycles <= 0 {
		t.Fatal("no hardware activity")
	}
}
