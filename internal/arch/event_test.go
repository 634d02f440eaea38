package arch

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/convert"
	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/spikeplane"
	"repro/internal/tensor"
)

// eventChip builds the noiseless chip the event-driven path engages on:
// with no read-noise stream, skipping a silent read cannot shift any
// RNG draw, so the engine self-gates onto bit-packed stepping.
func eventChip() *Chip {
	return NewChip(device.DefaultParams(), crossbar.Config{}, nil)
}

// compileEventSession compiles a session over a fresh noiseless chip.
func compileEventSession(t *testing.T, c *convert.Converted, opts ...Option) *Session {
	t.Helper()
	sess, err := eventChip().Compile(c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// assertEventMatchesDense runs the same batch through the forced-dense
// oracle and event-driven sessions at
// parallelism 1, 4 and NumCPU, requiring bitwise-identical outputs,
// predictions and spike counts. Cycle/packet/access counters are
// allowed to differ: skipped stages charge nothing — that is the
// event-driven accounting contract, not a divergence. The event runs
// must actually engage the packed path (PackedWords > 0) and the dense
// runs must not.
func assertEventMatchesDense(t *testing.T, c *convert.Converted, imgs []*tensor.Tensor, opts ...Option) {
	t.Helper()
	ctx := context.Background()
	dense := compileEventSession(t, c, append(append([]Option(nil), opts...), withDenseWalk())...)
	want, err := dense.RunBatch(ctx, imgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range want {
		if res.PackedWords != 0 || res.SilentStageSkips != 0 || res.RepeatReads != 0 {
			t.Fatalf("input %d: dense walk touched the packed path: %+v", i, res)
		}
	}
	for _, par := range []int{1, 4, runtime.NumCPU()} {
		sess := compileEventSession(t, c, append(append([]Option(nil), opts...), WithParallelism(par))...)
		got, err := sess.RunBatch(ctx, imgs)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		var packed int64
		for i := range want {
			wd, gd := want[i].Output.Data(), got[i].Output.Data()
			if len(wd) != len(gd) {
				t.Fatalf("parallelism %d input %d: output size %d, want %d", par, i, len(gd), len(wd))
			}
			for j := range wd {
				if wd[j] != gd[j] {
					t.Fatalf("parallelism %d input %d col %d: event %v != dense %v (event path not bitwise identical)",
						par, i, j, gd[j], wd[j])
				}
			}
			if got[i].Prediction != want[i].Prediction || got[i].Spikes != want[i].Spikes {
				t.Fatalf("parallelism %d input %d: prediction/spikes diverged: %+v vs %+v",
					par, i, got[i], want[i])
			}
			packed += got[i].PackedWords
		}
		if packed == 0 {
			t.Fatalf("parallelism %d: event sessions processed no packed words — packed path never engaged", par)
		}
	}
}

func TestSessionEventDrivenSNN(t *testing.T) {
	c, te := chipFixture(t)
	assertEventMatchesDense(t, c, sessionImages(t, te, 8),
		WithMode(ModeSNN), WithTimesteps(20), WithSeed(42))
}

func TestSessionEventDrivenHybrid(t *testing.T) {
	c, te := chipFixture(t)
	assertEventMatchesDense(t, c, sessionImages(t, te, 8),
		WithMode(ModeHybrid), WithHybridSplit(1), WithTimesteps(20), WithSeed(42))
}

func TestSessionEventDrivenConv(t *testing.T) {
	// Both conv stages exercise the per-window spike planes and the
	// silent-window skip of the window gather.
	c, d := convFixture(t)
	assertEventMatchesDense(t, c, sessionImages(t, d, 6),
		WithMode(ModeSNN), WithTimesteps(10), WithSeed(42), WithInputShape(4, 8, 8))
}

// TestSessionEventDrivenSkipsAndRepeats pins that the event machinery
// actually fires on a session-shaped workload: a constant (DC) encoder
// makes every timestep identical, so after the first step the dense
// stage must serve every read from the timestep-repeat cache.
func TestSessionEventDrivenSkipsAndRepeats(t *testing.T) {
	c, te := chipFixture(t)
	const T = 10
	sess := compileEventSession(t, c,
		WithMode(ModeSNN), WithTimesteps(T), WithSeed(42),
		WithEncoder(func(r *rng.Rand) snn.Encoder { return directEnc{} }))
	img, _ := te.Sample(0)
	res, err := sess.Run(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	if res.RepeatReads == 0 {
		t.Fatalf("constant input produced no repeat-cache hits: %+v", res)
	}
	// Identical planes every step: the first read misses, the rest of
	// the first dense stage's steps hit.
	if res.PackedWords == 0 {
		t.Fatal("packed path never engaged")
	}
	dense, err := compileEventSession(t, c,
		WithMode(ModeSNN), WithTimesteps(T), WithSeed(42), withDenseWalk(),
		WithEncoder(func(r *rng.Rand) snn.Encoder { return directEnc{} })).Run(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	od, dd := res.Output.Data(), dense.Output.Data()
	for j := range dd {
		if od[j] != dd[j] {
			t.Fatalf("col %d: repeat-cache run %v != dense %v", j, od[j], dd[j])
		}
	}
	// The repeat cache survives arena recycling (column sums are a pure
	// function of input values and conductance generation), so when the
	// arena hands run 2 the recycled state, its very first step replays
	// run 1's last read — one more hit than the cold run. The arena is
	// a sync.Pool, which may also drop the state and miss that step.
	// Either way the crossbar stats must match bitwise: hit and miss
	// fold identical per-read stats, which is the replay contract.
	res2, err := sess.Run(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	if res2.RepeatReads < res.RepeatReads {
		t.Fatalf("second run hit %d times, want at least the cold run's %d",
			res2.RepeatReads, res.RepeatReads)
	}
	if res2.Crossbar != res.Crossbar {
		t.Fatalf("replayed crossbar stats not bitwise identical: %+v vs %+v",
			res2.Crossbar, res.Crossbar)
	}
	od2 := res2.Output.Data()
	for j := range od {
		if od2[j] != od[j] {
			t.Fatalf("col %d: warm-cache run %v != cold run %v", j, od2[j], od[j])
		}
	}
}

// directEnc feeds the raw image every timestep (a graded, constant
// plane) — the workload the timestep-repeat cache exists for.
type directEnc struct{}

func (directEnc) Encode(img *tensor.Tensor) *tensor.Tensor { return img.Clone() }

// TestSuperTileEvaluateReadPacked drives a programmed super-tile
// through the packed and index read paths with the same inputs and
// requires bitwise-identical column sums, covering sparse, dense and
// all-zero planes. The packed walk has no fallback: a stale kernel must
// surface as crossbar.ErrStaleKernel.
func TestSuperTileEvaluateReadPacked(t *testing.T) {
	const rf, k = 200, 40 // stack=2 (second window ragged), sets=1
	r := rng.New(7)
	w := tensor.New(rf, k)
	for i := range w.Data() {
		w.Data()[i] = r.Float64()*2 - 1
	}
	build := func() *SuperTile {
		st := NewSuperTile(device.DefaultParams(), crossbar.Config{}, nil)
		if err := st.Program(w, 1.0); err != nil {
			t.Fatal(err)
		}
		st.Bake()
		return st
	}
	st := build()
	mkInput := func(density float64, seed uint64) ([]float64, *spikeplane.Plane) {
		rr := rng.New(seed)
		in := make([]float64, rf)
		for i := range in {
			if rr.Float64() < density {
				in[i] = 1
			}
		}
		var pl spikeplane.Plane
		pl.Pack(in)
		return in, &pl
	}
	for _, density := range []float64{0, 0.01, 0.1, 0.5, 1} {
		in, pl := mkInput(density, 11)
		want := make([]float64, k)
		got := make([]float64, k)
		var sc, scP EvalScratch
		if err := st.EvaluateReadInto(want, in, nil, nil, nil, &sc); err != nil {
			t.Fatal(err)
		}
		if err := st.EvaluateReadPacked(got, in, pl, nil, &scP); err != nil {
			t.Fatal(err)
		}
		for c := range want {
			if want[c] != got[c] {
				t.Fatalf("density %v col %d: packed %v != index %v", density, c, got[c], want[c])
			}
		}
	}
	// Stale kernel: invalidate one array and require both read paths to
	// refuse rather than fall back.
	stale := build()
	stale.acs[stale.slotAC[0]].InjectStuckFaults(rng.New(5), 0.01, crossbar.StuckAP)
	if stale.acs[stale.slotAC[0]].KernelFresh() {
		t.Fatal("fault injection did not invalidate the kernel")
	}
	in2, pl2 := mkInput(0.1, 17)
	var sc2, scP2 EvalScratch
	if err := stale.EvaluateReadInto(make([]float64, k), in2, nil, nil, nil, &sc2); !errors.Is(err, crossbar.ErrStaleKernel) {
		t.Fatalf("stale index read: got %v, want ErrStaleKernel", err)
	}
	if err := stale.EvaluateReadPacked(make([]float64, k), in2, pl2, nil, &scP2); !errors.Is(err, crossbar.ErrStaleKernel) {
		t.Fatalf("stale packed read: got %v, want ErrStaleKernel", err)
	}
	// A rebake restores both paths.
	stale.Bake()
	want2 := make([]float64, k)
	got2 := make([]float64, k)
	if err := stale.EvaluateReadInto(want2, in2, nil, nil, nil, &sc2); err != nil {
		t.Fatal(err)
	}
	if err := stale.EvaluateReadPacked(got2, in2, pl2, nil, &scP2); err != nil {
		t.Fatal(err)
	}
	for c := range want2 {
		if want2[c] != got2[c] {
			t.Fatalf("rebaked col %d: packed %v != index %v", c, got2[c], want2[c])
		}
	}
}
