package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/convert"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/reliability"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/train"
)

// serveSeed seeds both the pool and the standalone golden session, the
// precondition for comparing their outputs bit for bit.
const serveSeed = 42

// Shared trained fixture, compiled once per test binary.
var (
	fixOnce sync.Once
	fixConv *convert.Converted
	fixTest *dataset.Dataset
)

func serveFixture(t *testing.T) (*convert.Converted, *dataset.Dataset) {
	t.Helper()
	fixOnce.Do(func() {
		tr, te := dataset.TrainTest(dataset.MNISTLike, 200, 40, 77)
		net := models.NewMLP3(1, 16, 10, rng.New(5))
		cfg := train.DefaultConfig()
		cfg.Epochs = 4
		train.Run(net, tr, te, cfg)
		var err error
		fixConv, err = convert.Convert(net, tr, convert.DefaultConfig())
		if err != nil {
			panic(err)
		}
		fixTest = te
	})
	return fixConv, fixTest
}

// serveFactory compiles interchangeable replicas with read noise on, so
// per-request noise streams are load-bearing: any ticket misrouting
// under coalescing shows up as a bitwise mismatch. timesteps scales run
// duration — slow runs (large T) give concurrency tests a wide window.
func serveFactory(c *convert.Converted, timesteps int) fleet.Factory {
	return func(ctx context.Context) (*arch.Session, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chip := arch.NewChip(device.DefaultParams(), crossbar.Config{ReadNoiseSigma: 0.05}, rng.New(91))
		chip.Rel = &reliability.Config{
			Protection: reliability.ProtectSpareRemap,
			Policy:     reliability.DefaultPolicy(),
		}
		return chip.Compile(c,
			arch.WithMode(arch.ModeSNN),
			arch.WithTimesteps(timesteps),
			arch.WithSeed(serveSeed))
	}
}

func serveImages(t *testing.T, n int) []*tensor.Tensor {
	t.Helper()
	_, te := serveFixture(t)
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		imgs[i], _ = te.Sample(i % te.Len())
	}
	return imgs
}

// goldenRuns produces reference outputs from a standalone session
// seeded like the pool, run sequentially.
func goldenRuns(t *testing.T, imgs []*tensor.Tensor, timesteps int) []*arch.RunResult {
	t.Helper()
	c, _ := serveFixture(t)
	sess, err := serveFactory(c, timesteps)(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*arch.RunResult, len(imgs))
	for i, img := range imgs {
		out[i], err = sess.Run(context.Background(), img)
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func newTestServer(t *testing.T, cfg Config, replicas, timesteps int) (*Server, *fleet.Pool) {
	t.Helper()
	c, _ := serveFixture(t)
	pool, err := fleet.NewPool(context.Background(), fleet.Config{
		Replicas: replicas,
		Factory:  serveFactory(c, timesteps),
		Seed:     serveSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pool = pool
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(drainCtx)
	})
	return s, pool
}

func assertSameBits(t *testing.T, label string, i int, want, got *arch.RunResult) {
	t.Helper()
	wd, gd := want.Output.Data(), got.Output.Data()
	if len(wd) != len(gd) {
		t.Fatalf("%s: input %d: output size %d, want %d", label, i, len(gd), len(wd))
	}
	for j := range wd {
		if math.Float64bits(wd[j]) != math.Float64bits(gd[j]) {
			t.Fatalf("%s: input %d col %d: %v != %v (served result not bitwise identical)",
				label, i, j, gd[j], wd[j])
		}
	}
}

// TestServeDeterministicAcrossBatchShapes is the keystone: the same
// request sequence must produce byte-identical outputs whether each
// request is served solo (BatchSize 1) or coalesced into any batch
// shape, because tickets are reserved in admission order.
func TestServeDeterministicAcrossBatchShapes(t *testing.T) {
	imgs := serveImages(t, 8)
	want := goldenRuns(t, imgs, 10)
	for _, shape := range []struct {
		name  string
		batch int
		delay time.Duration
	}{
		{"solo", 1, 0},
		{"greedy4", 4, 0},
		{"timed8", 8, 20 * time.Millisecond},
	} {
		t.Run(shape.name, func(t *testing.T) {
			s, _ := newTestServer(t, Config{BatchSize: shape.batch, MaxDelay: shape.delay, QueueDepth: 32}, 2, 10)
			// Submit everything first (deterministic admission order),
			// then collect: later requests can coalesce with earlier ones.
			pending := make([]*Pending, len(imgs))
			for i, img := range imgs {
				p, err := s.Submit(context.Background(), img)
				if err != nil {
					t.Fatal(err)
				}
				pending[i] = p
			}
			for i, p := range pending {
				got, err := p.Wait()
				if err != nil {
					t.Fatal(err)
				}
				assertSameBits(t, shape.name, i, want[i], got)
			}
		})
	}
}

// TestServeCoalescing checks the watermark path actually forms
// multi-request batches when requests are queued together.
func TestServeCoalescing(t *testing.T) {
	rec := obs.NewServeRecorder()
	s, _ := newTestServer(t, Config{BatchSize: 4, MaxDelay: 50 * time.Millisecond, QueueDepth: 32, Rec: rec}, 2, 10)
	imgs := serveImages(t, 8)
	pending := make([]*Pending, len(imgs))
	for i, img := range imgs {
		p, err := s.Submit(context.Background(), img)
		if err != nil {
			t.Fatal(err)
		}
		pending[i] = p
	}
	for _, p := range pending {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := rec.Stats()
	if st.Served != int64(len(imgs)) {
		t.Fatalf("served %d, want %d", st.Served, len(imgs))
	}
	if st.Batches >= int64(len(imgs)) {
		t.Fatalf("%d batches for %d requests: no coalescing happened", st.Batches, len(imgs))
	}
	if st.BatchFill.Count != st.Batches {
		t.Fatalf("batch-fill histogram count %d != batches %d", st.BatchFill.Count, st.Batches)
	}
	if st.BatchFill.Sum != int64(len(imgs)) {
		t.Fatalf("batch-fill sum %v, want %d (every request in exactly one batch)", st.BatchFill.Sum, len(imgs))
	}
}

// TestServeBackpressure checks bounded admission: with a tiny queue and
// slow runs, a burst must hit typed ErrQueueFull, and the queue-full
// counter must line up.
func TestServeBackpressure(t *testing.T) {
	rec := obs.NewServeRecorder()
	// Slow runs (high timesteps) + batch 1 + queue 2: the dispatcher is
	// busy with the first request while the burst lands.
	s, _ := newTestServer(t, Config{BatchSize: 1, QueueDepth: 2, Rec: rec}, 1, 2000)
	imgs := serveImages(t, 8)
	var pending []*Pending
	var full int
	for _, img := range imgs {
		p, err := s.Submit(context.Background(), img)
		switch {
		case err == nil:
			pending = append(pending, p)
		case errors.Is(err, ErrQueueFull):
			full++
		default:
			t.Fatalf("unexpected admission error: %v", err)
		}
	}
	if full == 0 {
		t.Fatal("burst of 8 into queue of 2 produced no ErrQueueFull")
	}
	for _, p := range pending {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := rec.Stats()
	if st.RejectedQueueFull != int64(full) {
		t.Fatalf("recorder counted %d queue-full rejections, observed %d", st.RejectedQueueFull, full)
	}
	if st.Admitted != int64(len(pending)) {
		t.Fatalf("recorder counted %d admissions, observed %d", st.Admitted, len(pending))
	}
}

// TestServeDrainFlushesQueue checks drain-with-nonempty-queue: every
// request admitted before Drain is served, not dropped, and admissions
// after Drain fail with ErrDraining.
func TestServeDrainFlushesQueue(t *testing.T) {
	rec := obs.NewServeRecorder()
	s, _ := newTestServer(t, Config{BatchSize: 2, QueueDepth: 16, Rec: rec}, 2, 10)
	imgs := serveImages(t, 6)
	want := goldenRuns(t, imgs, 10)
	pending := make([]*Pending, len(imgs))
	for i, img := range imgs {
		p, err := s.Submit(context.Background(), img)
		if err != nil {
			t.Fatal(err)
		}
		pending[i] = p
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !s.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	// Post-drain admission must be refused, typed.
	if _, err := s.Submit(context.Background(), imgs[0]); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Submit: %v, want ErrDraining", err)
	}
	// Everything admitted pre-drain was served — with the right bits.
	for i, p := range pending {
		got, err := p.Wait()
		if err != nil {
			t.Fatalf("request %d admitted before drain failed: %v", i, err)
		}
		assertSameBits(t, "drain", i, want[i], got)
	}
	st := rec.Stats()
	if st.Served != int64(len(imgs)) {
		t.Fatalf("served %d, want %d (drain dropped queued requests)", st.Served, len(imgs))
	}
	if st.RejectedDraining != 1 {
		t.Fatalf("draining rejections %d, want 1", st.RejectedDraining)
	}
	if !st.Draining {
		t.Fatal("recorder draining gauge not set")
	}
	// Drain is idempotent.
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestServeDeadlineWhileQueued checks a request whose deadline expires
// while it waits in the queue is culled at dispatch — typed stage
// "queued" — and never reaches the pool.
func TestServeDeadlineWhileQueued(t *testing.T) {
	rec := obs.NewServeRecorder()
	// Batch 1, one replica, slow runs: the second request waits in the
	// queue the whole time the first one runs.
	s, _ := newTestServer(t, Config{BatchSize: 1, QueueDepth: 8, Rec: rec}, 1, 2000)
	imgs := serveImages(t, 2)
	p0, err := s.Submit(context.Background(), imgs[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p1, err := s.Submit(ctx, imgs[1])
	if err != nil {
		t.Fatal(err)
	}
	cancel() // expire while queued: the first request is still running
	if _, err := p0.Wait(); err != nil {
		t.Fatalf("first request: %v", err)
	}
	_, err = p1.Wait()
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("queued-expiry error %v, want *DeadlineError", err)
	}
	if de.Stage != StageQueued {
		t.Fatalf("stage %q, want %q", de.Stage, StageQueued)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
	// Wait returns from the dispatcher's answer, so the cull counter is
	// already settled here.
	if got := rec.Stats().ExpiredQueued; got != 1 {
		t.Fatalf("expired-queued counter %d, want 1", got)
	}
}

// TestServeDeadlineMidBatch checks a deadline expiring mid-run cancels
// only that request — typed stage "running" — while its batch-mate
// completes with the right bits.
func TestServeDeadlineMidBatch(t *testing.T) {
	imgs := serveImages(t, 2)
	want := goldenRuns(t, imgs, 3000)
	// Batch 2, two replicas: both requests dispatch in one batch and run
	// concurrently; timesteps 3000 gives a wide cancellation window. The
	// coalesce deadline holds the batch open until the second request
	// arrives: a greedy dispatcher would flush the first one alone
	// whenever this goroutine is descheduled between the two Submits.
	s, pool := newTestServer(t, Config{BatchSize: 2, MaxDelay: 30 * time.Second, QueueDepth: 8}, 2, 3000)
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	p0, err := s.Submit(context.Background(), imgs[0])
	if err != nil {
		t.Fatal(err)
	}
	p1, err := s.Submit(ctx1, imgs[1])
	if err != nil {
		t.Fatal(err)
	}
	// Wait until both batch-mates are actually on sessions, then cancel
	// the second one mid-run.
	deadline := time.Now().Add(30 * time.Second)
	for pool.Stats().InFlight < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := pool.Stats().InFlight; got < 2 {
		t.Fatalf("in-flight %d, want 2 (batch did not dispatch concurrently)", got)
	}
	cancel1()
	_, err = p1.Wait()
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("mid-run cancel error %v, want *DeadlineError", err)
	}
	if de.Stage != StageRunning {
		t.Fatalf("stage %q, want %q", de.Stage, StageRunning)
	}
	// The batch-mate is undisturbed: it completes, bit-exact.
	got, err := p0.Wait()
	if err != nil {
		t.Fatalf("batch-mate failed: %v", err)
	}
	assertSameBits(t, "mid-batch", 0, want[0], got)
}

// TestPoolStats checks the occupancy snapshot the serve layer and
// /healthz consume.
func TestPoolStats(t *testing.T) {
	c, _ := serveFixture(t)
	pool, err := fleet.NewPool(context.Background(), fleet.Config{
		Replicas: 2,
		Factory:  serveFactory(c, 10),
		Seed:     serveSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Replicas != 2 || st.Active != 2 || st.Healthy != 2 {
		t.Fatalf("fresh pool stats %+v, want 2 replicas active and healthy", st)
	}
	if st.Suspect != 0 || st.Retired != 0 || st.InFlight != 0 {
		t.Fatalf("fresh pool stats %+v, want zero suspect/retired/in-flight", st)
	}
}
