package fleet

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/convert"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/reliability"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/train"
)

// fleetSeed seeds both the pool parent and the standalone reference
// session, which is what makes their outputs comparable bit for bit.
const fleetSeed = 42

// Shared trained fixture: one small converted model every pool test
// compiles replicas from.
var (
	fixOnce sync.Once
	fixConv *convert.Converted
	fixTest *dataset.Dataset
)

func fleetFixture(t *testing.T) (*convert.Converted, *dataset.Dataset) {
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

// testFactory compiles interchangeable replicas: identical chip seed,
// identical options, read noise switched on so the per-request noise
// streams are load-bearing (any stream misrouting under concurrency or
// failover shows up as a bitwise mismatch).
func testFactory(c *convert.Converted) Factory {
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
			arch.WithTimesteps(10),
			arch.WithSeed(fleetSeed))
	}
}

func fleetImages(t *testing.T, n int) []*tensor.Tensor {
	t.Helper()
	_, te := fleetFixture(t)
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		imgs[i], _ = te.Sample(i)
	}
	return imgs
}

// goldenRuns produces the reference outputs: a standalone session with
// the pool's seed, run sequentially.
func goldenRuns(t *testing.T, imgs []*tensor.Tensor) []*arch.RunResult {
	t.Helper()
	c, _ := fleetFixture(t)
	sess, err := testFactory(c)(context.Background())
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

func assertSameBits(t *testing.T, label string, i int, want, got *arch.RunResult) {
	t.Helper()
	wd, gd := want.Output.Data(), got.Output.Data()
	if len(wd) != len(gd) {
		t.Fatalf("%s: input %d: output size %d, want %d", label, i, len(gd), len(wd))
	}
	for j := range wd {
		if math.Float64bits(wd[j]) != math.Float64bits(gd[j]) {
			t.Fatalf("%s: input %d col %d: %v != %v (pool result not bitwise identical)",
				label, i, j, gd[j], wd[j])
		}
	}
}

func TestPoolRunMatchesStandaloneSession(t *testing.T) {
	c, _ := fleetFixture(t)
	ctx := context.Background()
	imgs := fleetImages(t, 6)
	want := goldenRuns(t, imgs)
	pool, err := NewPool(ctx, Config{Replicas: 2, Factory: testFactory(c), Seed: fleetSeed})
	if err != nil {
		t.Fatal(err)
	}
	if pool.Replicas() != 2 || pool.Healthy() != 2 {
		t.Fatalf("fresh pool: %d replicas, %d healthy", pool.Replicas(), pool.Healthy())
	}
	for i, img := range imgs {
		got, err := pool.Run(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, "run", i, want[i], got)
	}
}

// TestPoolRunBatchDeterministicUnderFailover is the keystone of the
// determinism contract: batches at parallelism 1, 4 and NumCPU, with
// run faults armed and a replica killed mid-batch, still reproduce the
// standalone sequential session bit for bit.
func TestPoolRunBatchDeterministicUnderFailover(t *testing.T) {
	c, _ := fleetFixture(t)
	ctx := context.Background()
	imgs := fleetImages(t, 8)
	want := goldenRuns(t, imgs)
	for _, par := range []int{1, 4, runtime.NumCPU()} {
		rec := &obs.FleetRecorder{}
		pool, err := NewPool(ctx, Config{
			Replicas:    3,
			Factory:     testFactory(c),
			Seed:        fleetSeed,
			Parallelism: par,
			Rec:         rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Arm a detected run fault on replica 0 and crash replica 1
		// concurrently with the batch: requests must fail over without
		// perturbing a single output bit.
		pool.InjectRunFaults(0, 2)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.Kill(1)
		}()
		got, err := pool.RunBatch(ctx, imgs)
		wg.Wait()
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for i := range got {
			assertSameBits(t, "batch", i, want[i], got[i])
		}
		s := rec.Stats()
		if s.Served != int64(len(imgs)) {
			t.Fatalf("parallelism %d: served %d, want %d", par, s.Served, len(imgs))
		}
		if s.Retries == 0 {
			t.Fatalf("parallelism %d: injected run fault triggered no retry: %+v", par, s)
		}
		if s.Retirements != 1 {
			t.Fatalf("parallelism %d: kill recorded %d retirements: %+v", par, s.Retirements, s)
		}
	}
}

func TestPoolRetryBudgetExhaustedSurfaces(t *testing.T) {
	c, _ := fleetFixture(t)
	ctx := context.Background()
	imgs := fleetImages(t, 1)
	rec := &obs.FleetRecorder{}
	pool, err := NewPool(ctx, Config{
		Replicas: 1, Factory: testFactory(c), Seed: fleetSeed,
		RetryBudget: 1, Rec: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	// More armed faults than the budget: every attempt fails, including
	// the ones served after an inline rescue scrub clears the suspect.
	pool.InjectRunFaults(0, 5)
	if _, err := pool.Run(ctx, imgs[0]); !errors.Is(err, ErrExhausted) {
		t.Fatalf("got %v, want ErrExhausted", err)
	}
	s := rec.Stats()
	if s.Failed != 1 || s.Retries != 1 || s.Served != 0 {
		t.Fatalf("exhaustion bookkeeping wrong: %+v", s)
	}
	if s.ScrubCycles == 0 {
		t.Fatalf("single-replica retry never took the rescue scrub path: %+v", s)
	}
}

// TestPoolWrongLengthInputKeepsReplicasHealthy: an input of the wrong
// length is the request's fault. The pool must return the session's
// typed error at once — no retry, no failover, no suspect mark — so one
// bad request cannot take the replicas out of routing.
func TestPoolWrongLengthInputKeepsReplicasHealthy(t *testing.T) {
	c, _ := fleetFixture(t)
	ctx := context.Background()
	rec := &obs.FleetRecorder{}
	pool, err := NewPool(ctx, Config{Replicas: 2, Factory: testFactory(c), Seed: fleetSeed, Rec: rec})
	if err != nil {
		t.Fatal(err)
	}
	_, err = pool.Run(ctx, tensor.New(7))
	var ie *arch.InputError
	if !errors.Is(err, arch.ErrBadInput) || !errors.As(err, &ie) || ie.Len != 7 {
		t.Fatalf("got %v, want an *arch.InputError for length 7", err)
	}
	if errors.Is(err, ErrExhausted) {
		t.Fatalf("bad input consumed the retry budget: %v", err)
	}
	if st := pool.Stats(); st.Healthy != st.Replicas || st.Suspect != 0 {
		t.Fatalf("after a bad request: %+v, want every replica healthy", st)
	}
	if s := rec.Stats(); s.Retries != 0 || s.Failovers != 0 || s.Failed != 1 {
		t.Fatalf("bad input bookkeeping wrong: %+v", s)
	}
	if _, err := pool.Run(ctx, fleetImages(t, 1)[0]); err != nil {
		t.Fatalf("good request after a bad one: %v", err)
	}
}

func TestPoolRescueRecompilesWhenAllReplicasDead(t *testing.T) {
	c, _ := fleetFixture(t)
	ctx := context.Background()
	imgs := fleetImages(t, 1)
	want := goldenRuns(t, imgs)
	rec := &obs.FleetRecorder{}
	pool, err := NewPool(ctx, Config{Replicas: 2, Factory: testFactory(c), Seed: fleetSeed, Rec: rec})
	if err != nil {
		t.Fatal(err)
	}
	pool.Kill(0)
	pool.Kill(1)
	if pool.Healthy() != 0 {
		t.Fatalf("killed pool reports %d healthy", pool.Healthy())
	}
	// With the whole pool dead, Run must rescue via an emergency
	// recompile rather than fail — and still match the golden bits.
	got, err := pool.Run(ctx, imgs[0])
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, "rescue", 0, want[0], got)
	s := rec.Stats()
	if s.Retirements != 2 || s.Recompiles == 0 {
		t.Fatalf("rescue bookkeeping wrong: %+v", s)
	}
	if pool.Healthy() == 0 {
		t.Fatal("rescue left no healthy replica")
	}
}

func TestPoolMaintainScrubsDriftedReplica(t *testing.T) {
	c, _ := fleetFixture(t)
	ctx := context.Background()
	imgs := fleetImages(t, 4)
	want := goldenRuns(t, imgs)
	rec := &obs.FleetRecorder{}
	pool, err := NewPool(ctx, Config{Replicas: 2, Factory: testFactory(c), Seed: fleetSeed, Rec: rec})
	if err != nil {
		t.Fatal(err)
	}
	pool.AgeReplica(0, 20000)
	if pool.Healthy() != 1 {
		t.Fatalf("drifted replica still serveable: %d healthy", pool.Healthy())
	}
	if err := pool.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	if pool.Healthy() != 2 {
		t.Fatalf("maintenance did not restore the drifted replica: %d healthy", pool.Healthy())
	}
	if s := rec.Stats(); s.ScrubCycles != 1 || s.Retirements != 0 {
		t.Fatalf("maintenance bookkeeping wrong: %+v", s)
	}
	for i, img := range imgs {
		got, err := pool.Run(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, "post-scrub", i, want[i], got)
	}
}

func TestPoolMaintainRetiresFaultedReplicaWithBackoff(t *testing.T) {
	c, _ := fleetFixture(t)
	ctx := context.Background()
	base := testFactory(c)
	var fabDown atomic.Bool
	var calls atomic.Int32
	factory := func(ctx context.Context) (*arch.Session, error) {
		calls.Add(1)
		if fabDown.Load() {
			return nil, errors.New("fab down")
		}
		return base(ctx)
	}
	rec := &obs.FleetRecorder{}
	pool, err := NewPool(ctx, Config{
		Replicas: 2, Factory: factory, Seed: fleetSeed,
		BackoffBaseTicks: 1, BackoffMaxTicks: 2, Rec: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	compiles := calls.Load() // the two construction compiles

	// Heavy stuck onset: the strict default threshold (any residual
	// fault) retires the replica at the next maintenance tick.
	fabDown.Store(true)
	if n := pool.InjectStuck(0, 99, 0.2); n == 0 {
		t.Fatal("stuck injection struck nothing")
	}
	if err := pool.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	if s := rec.Stats(); s.Retirements != 1 || s.ScrubCycles != 1 {
		t.Fatalf("faulted replica not retired by maintenance: %+v", s)
	}
	if pool.Healthy() != 1 {
		t.Fatalf("pool health after retirement: %d, want 1", pool.Healthy())
	}

	// Backoff schedule with base 1, max 2: tick 1 waits, tick 2
	// attempts (fails, backoff doubles to 2), ticks 3-4 wait, tick 5
	// attempts again — recompile attempts must not run every tick.
	attempts := func() int32 { return calls.Load() - compiles }
	for tick, wantAttempts := range []int32{0, 1, 1, 1, 2} {
		if err := pool.Maintain(ctx); err != nil {
			t.Fatal(err)
		}
		if got := attempts(); got != wantAttempts {
			t.Fatalf("after tick %d: %d recompile attempts, want %d", tick+1, got, wantAttempts)
		}
	}

	// Fab back up: the next due attempt returns the replica to service.
	fabDown.Store(false)
	for i := 0; i < 3 && pool.Healthy() < 2; i++ {
		if err := pool.Maintain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if pool.Healthy() != 2 {
		t.Fatalf("recompile did not restore the pool: %d healthy", pool.Healthy())
	}
	if s := rec.Stats(); s.Recompiles != 1 {
		t.Fatalf("recompile bookkeeping wrong: %+v", s)
	}
}

// TestPoolReservedTicketsDeterministicOutOfOrder is the serving-tier
// contract: tickets reserved in admission order and redeemed in any
// order — here, reversed and concurrently — still reproduce the
// standalone sequential session bit for bit.
func TestPoolReservedTicketsDeterministicOutOfOrder(t *testing.T) {
	c, _ := fleetFixture(t)
	ctx := context.Background()
	imgs := fleetImages(t, 6)
	want := goldenRuns(t, imgs)
	pool, err := NewPool(ctx, Config{Replicas: 2, Factory: testFactory(c), Seed: fleetSeed})
	if err != nil {
		t.Fatal(err)
	}

	tickets := make([]Ticket, len(imgs))
	for i := range imgs {
		tickets[i] = pool.ReserveTicket()
	}

	got := make([]*arch.RunResult, len(imgs))
	var wg sync.WaitGroup
	for i := len(imgs) - 1; i >= 0; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := pool.ServeReserved(ctx, imgs[i], tickets[i])
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = res
		}(i)
	}
	wg.Wait()
	for i := range imgs {
		assertSameBits(t, "reserved", i, want[i], got[i])
	}
}

// TestPoolStatsSnapshot checks the occupancy partition a serving tier's
// health endpoint reads: fresh pools are all-active, a killed replica
// moves to retired, and the partition always sums to Replicas.
func TestPoolStatsSnapshot(t *testing.T) {
	c, _ := fleetFixture(t)
	ctx := context.Background()
	pool, err := NewPool(ctx, Config{Replicas: 2, Factory: testFactory(c), Seed: fleetSeed})
	if err != nil {
		t.Fatal(err)
	}
	s := pool.Stats()
	if s.Replicas != 2 || s.Active != 2 || s.Healthy != 2 || s.Suspect != 0 || s.Retired != 0 {
		t.Fatalf("fresh pool stats: %+v", s)
	}
	if s.InFlight != 0 {
		t.Fatalf("fresh pool in-flight: %d, want 0", s.InFlight)
	}

	pool.Kill(0)
	s = pool.Stats()
	if s.Retired != 1 || s.Active != 1 || s.Healthy != 1 {
		t.Fatalf("post-kill stats: %+v", s)
	}
	if s.Active+s.Suspect+s.Retired != s.Replicas {
		t.Fatalf("partition does not sum: %+v", s)
	}

	// Report is per-replica introspection; a fresh replica's compile
	// BIST left no pair unmitigated.
	if r := pool.Report(1); r.Unmitigated != 0 {
		t.Fatalf("fresh replica scrub report: %+v", r)
	}
}
