package arch

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/convert"
	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/reliability"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// obsExport renders a recorder snapshot into the two exchange formats
// and returns their concatenation, so one byte comparison covers both.
func obsExport(t *testing.T, rec *obs.Recorder) []byte {
	t.Helper()
	var b bytes.Buffer
	snap := rec.Snapshot()
	if err := snap.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := snap.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// assertObsDeterminism checks the shard-merge contract: the exported
// counter snapshot of a parallel RunBatch is bitwise identical to a
// sequential loop of Run calls over the same inputs, at every
// parallelism level the acceptance criteria name.
func assertObsDeterminism(t *testing.T, c *convert.Converted, imgs []*tensor.Tensor, opts ...Option) {
	t.Helper()
	ctx := context.Background()
	recSeq := obs.NewRecorder()
	seq := compileSession(t, c, append(append([]Option(nil), opts...), WithObserver(recSeq))...)
	for _, img := range imgs {
		if _, err := seq.Run(ctx, img); err != nil {
			t.Fatal(err)
		}
	}
	want := obsExport(t, recSeq)
	if recSeq.Runs() != int64(len(imgs)) {
		t.Fatalf("sequential recorder counted %d runs, want %d", recSeq.Runs(), len(imgs))
	}
	for _, par := range []int{1, 4, runtime.NumCPU()} {
		rec := obs.NewRecorder()
		sess := compileSession(t, c, append(append([]Option(nil), opts...),
			WithObserver(rec), WithParallelism(par))...)
		if _, err := sess.RunBatch(ctx, imgs); err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		got := obsExport(t, rec)
		if !bytes.Equal(got, want) {
			t.Fatalf("parallelism %d: exported snapshot not bitwise identical to sequential\n--- sequential ---\n%s\n--- parallel ---\n%s",
				par, want, got)
		}
	}
}

func TestObserverSnapshotDeterminismANN(t *testing.T) {
	c, te := chipFixture(t)
	assertObsDeterminism(t, c, sessionImages(t, te, 8),
		WithMode(ModeANN), WithSeed(42))
}

func TestObserverSnapshotDeterminismSNN(t *testing.T) {
	c, te := chipFixture(t)
	assertObsDeterminism(t, c, sessionImages(t, te, 8),
		WithMode(ModeSNN), WithTimesteps(20), WithSeed(42))
}

func TestObserverSnapshotDeterminismHybrid(t *testing.T) {
	c, te := chipFixture(t)
	assertObsDeterminism(t, c, sessionImages(t, te, 8),
		WithMode(ModeHybrid), WithHybridSplit(1), WithTimesteps(20), WithSeed(42))
}

// TestObserverZeroEffectOnOutputs pins the zero-cost guarantee's
// semantic half: attaching a recorder must not perturb a single output
// bit (the recorder only reads counters the engine already maintains).
func TestObserverZeroEffectOnOutputs(t *testing.T) {
	c, te := chipFixture(t)
	imgs := sessionImages(t, te, 4)
	ctx := context.Background()
	opts := []Option{WithMode(ModeSNN), WithTimesteps(20), WithSeed(42)}
	plain := compileSession(t, c, opts...)
	observed := compileSession(t, c, append(append([]Option(nil), opts...),
		WithObserver(obs.NewRecorder()))...)
	for i, img := range imgs {
		a, err := plain.Run(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		b, err := observed.Run(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		ad, bd := a.Output.Data(), b.Output.Data()
		for j := range ad {
			if ad[j] != bd[j] {
				t.Fatalf("input %d col %d: observed run diverged: %v != %v", i, j, bd[j], ad[j])
			}
		}
		if a.Spikes != b.Spikes || a.Cycles != b.Cycles {
			t.Fatalf("input %d: stats diverged under observation: %+v vs %+v", i, b, a)
		}
	}
}

// TestObserverCountersMatchRunResult cross-checks the per-stage
// attribution against the engine's own aggregate counters.
func TestObserverCountersMatchRunResult(t *testing.T) {
	c, te := chipFixture(t)
	ctx := context.Background()
	rec := obs.NewRecorder()
	sess := compileSession(t, c, WithMode(ModeSNN), WithTimesteps(20), WithSeed(42),
		WithObserver(rec))
	img, _ := te.Sample(0)
	res, err := sess.Run(ctx, img)
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	tot := snap.Totals
	if tot.Cycles != res.Cycles || tot.NoCPackets != res.NoCPackets ||
		tot.NoCHops != res.NoCHops || tot.ADCConversions != res.ADCConversions ||
		tot.EDRAMAccesses != res.EDRAMAccesses {
		t.Fatalf("snapshot totals %+v disagree with RunResult %+v", tot, res)
	}
	// Stage buckets include the encoder's input spikes on top of the
	// hardware spikes the RunResult counts.
	if tot.SpikesEmitted < res.Spikes {
		t.Fatalf("total spikes %d < hardware spikes %d", tot.SpikesEmitted, res.Spikes)
	}
	if tot.MACReads != res.Crossbar.MACs || tot.ActiveRowSum != res.Crossbar.ActiveRowSum {
		t.Fatalf("crossbar attribution %+v disagrees with run stats %+v", tot, res.Crossbar)
	}
	if snap.Mode != "snn" || len(snap.Stages) == 0 || snap.Stages[0].Name != "input" {
		t.Fatalf("unexpected layout in snapshot: %+v", snap)
	}
}

// TestObserverProgramRecord checks that compile-time work — programming
// energy and the BIST/repair pipeline — lands in the program record.
func TestObserverProgramRecord(t *testing.T) {
	c, _ := chipFixture(t)
	chip := NewChip(device.DefaultParams(), crossbar.Config{}, rng.New(93))
	chip.Rel = &reliability.Config{
		Faults:     reliability.FaultProfile{DeviceRate: 0.002, PermanentFrac: 1, Mode: crossbar.StuckAP},
		Protection: reliability.ProtectSpareRemap,
		Policy:     reliability.DefaultPolicy(),
	}
	rec := obs.NewRecorder()
	if _, err := chip.Compile(c, WithMode(ModeSNN), WithTimesteps(5), WithObserver(rec)); err != nil {
		t.Fatal(err)
	}
	p := rec.Snapshot().Program
	if p.Compiles != 1 {
		t.Fatalf("Compiles = %d, want 1", p.Compiles)
	}
	if p.ProgramEnergyFJ <= 0 {
		t.Fatalf("ProgramEnergyFJ = %v, want > 0", p.ProgramEnergyFJ)
	}
	if p.BISTReads == 0 {
		t.Fatalf("BISTReads = 0, want the scan's read count")
	}
	if p.FaultsFound == 0 {
		t.Fatalf("FaultsFound = 0 under an injected fault profile")
	}
}

// TestObserverBindRejectsSecondSchema: one recorder serves many
// sessions only when their counter schemas agree; a different pipeline
// shape must be refused at Compile.
func TestObserverBindRejectsSecondSchema(t *testing.T) {
	c, _ := chipFixture(t)
	rec := obs.NewRecorder()
	if _, err := sessionChip().Compile(c, WithMode(ModeSNN), WithTimesteps(5), WithObserver(rec)); err != nil {
		t.Fatal(err)
	}
	// Same model, same schema: accepted.
	if _, err := sessionChip().Compile(c, WithMode(ModeSNN), WithTimesteps(5), WithObserver(rec)); err != nil {
		t.Fatalf("re-bind with identical schema: %v", err)
	}
	// ANN mode drops the input bucket and relabels domains: refused.
	_, err := sessionChip().Compile(c, WithMode(ModeANN), WithObserver(rec))
	if err == nil {
		t.Fatal("bind with a different schema succeeded")
	}
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CompileError, got %v", err)
	}
}

// TestObserverTrace checks the bounded ring: events carry run ordinals
// assigned at merge time and the ring keeps only the newest entries.
func TestObserverTrace(t *testing.T) {
	c, te := chipFixture(t)
	ctx := context.Background()
	rec := obs.NewRecorder(obs.WithTrace(16))
	sess := compileSession(t, c, WithMode(ModeSNN), WithTimesteps(5), WithSeed(42),
		WithObserver(rec))
	if _, err := sess.RunBatch(ctx, sessionImages(t, te, 3)); err != nil {
		t.Fatal(err)
	}
	ev := rec.Trace()
	if len(ev) != 16 {
		t.Fatalf("trace length %d, want ring capacity 16", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		a, b := ev[i-1], ev[i]
		if b.Run < a.Run || (b.Run == a.Run && b.Timestep < a.Timestep) {
			t.Fatalf("trace not in run/timestep order at %d: %+v then %+v", i, a, b)
		}
	}
	if last := ev[len(ev)-1]; last.Run != 2 {
		t.Fatalf("newest trace event from run %d, want 2", last.Run)
	}
}

// cancellingEncoder cancels a context on its n-th Encode call, which
// lands the cancellation inside a spiking run's timestep loop.
type cancellingEncoder struct {
	inner  snn.Encoder
	cancel context.CancelFunc
	after  int
	calls  int
}

func (e *cancellingEncoder) Encode(img *tensor.Tensor) *tensor.Tensor {
	e.calls++
	if e.calls == e.after {
		e.cancel()
	}
	return e.inner.Encode(img)
}

// TestRunCancelMidTimestep: cancellation raised inside a run's timestep
// loop surfaces promptly as ctx.Err() and the aborted run's shard is
// discarded — the recorder never sees a partial run.
func TestRunCancelMidTimestep(t *testing.T) {
	c, te := chipFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := obs.NewRecorder()
	enc := &cancellingEncoder{inner: snn.NewPoissonEncoder(1.0, rng.New(1)), cancel: cancel, after: 5}
	sess := compileSession(t, c, WithMode(ModeSNN), WithTimesteps(20),
		WithEncoder(func(*rng.Rand) snn.Encoder { return enc }), WithObserver(rec))
	img, _ := te.Sample(0)
	if _, err := sess.Run(ctx, img); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run cancelled mid-timestep: got %v, want context.Canceled", err)
	}
	if enc.calls != 5 {
		t.Fatalf("encoder ran %d timesteps after cancellation, want 5 (prompt exit)", enc.calls)
	}
	if rec.Runs() != 0 {
		t.Fatalf("recorder merged %d runs from a cancelled inference, want 0", rec.Runs())
	}
}

// TestRunBatchCancelMidBatch: a cancellation landing inside one batch
// item aborts the whole batch with ctx.Err(), and per the discard
// contract none of the batch's runs — not even completed ones — reach
// the recorder.
func TestRunBatchCancelMidBatch(t *testing.T) {
	c, te := chipFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := obs.NewRecorder()
	const T = 10
	// Cancel inside input 1's fifth timestep: input 0 completes first.
	// One worker runs the inputs in order, sharing the counting encoder.
	enc := &cancellingEncoder{inner: snn.NewPoissonEncoder(1.0, rng.New(1)), cancel: cancel, after: T + 5}
	sess := compileSession(t, c, WithMode(ModeSNN), WithTimesteps(T), WithParallelism(1),
		WithEncoder(func(*rng.Rand) snn.Encoder { return enc }), WithObserver(rec))
	_, err := sess.RunBatch(ctx, sessionImages(t, te, 4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBatch cancelled mid-batch: got %v, want context.Canceled", err)
	}
	if enc.calls != T+5 {
		t.Fatalf("encoder ran %d timesteps after cancellation, want %d (prompt exit)", enc.calls, T+5)
	}
	if rec.Runs() != 0 {
		t.Fatalf("recorder kept %d runs from an aborted batch, want 0 (discard contract)", rec.Runs())
	}
}

// TestRunBatchErrorDiscardsShards: a failing input in a parallel batch
// abandons every shard, and the recorder stays usable for the next
// (successful) batch.
func TestRunBatchErrorDiscardsShards(t *testing.T) {
	c, te := chipFixture(t)
	ctx := context.Background()
	rec := obs.NewRecorder()
	sess := compileSession(t, c, WithMode(ModeANN), WithSeed(42),
		WithObserver(rec), WithParallelism(4))
	imgs := sessionImages(t, te, 4)
	bad := append(append([]*tensor.Tensor(nil), imgs...), tensor.New(3))
	if _, err := sess.RunBatch(ctx, bad); err == nil {
		t.Fatal("batch with a malformed input succeeded")
	}
	if rec.Runs() != 0 {
		t.Fatalf("recorder kept %d runs from a failed batch, want 0", rec.Runs())
	}
	if _, err := sess.RunBatch(ctx, imgs); err != nil {
		t.Fatalf("batch after failure: %v", err)
	}
	if rec.Runs() != int64(len(imgs)) {
		t.Fatalf("recorder counted %d runs, want %d", rec.Runs(), len(imgs))
	}
}
