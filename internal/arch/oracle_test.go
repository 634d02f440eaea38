package arch

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// This file holds the reference oracle: two unexported switches that
// compile a session onto a reference walk, plus the activity sweep and
// the benchmarks that compare production against it. Production code
// has no way to select either walk; the bitwise gates (make
// kernel-check, make sparse-check) run the tests that use them.

// withKernelOff compiles the kernel-off oracle: no read kernel is baked,
// so every MACRead takes the dense reference path. It forces the dense
// walk too, because the packed walk has no reference form.
func withKernelOff() Option {
	return func(c *sessionConfig) { c.noKernel, c.noEvent = true, true }
}

// withDenseWalk compiles the forced-dense oracle: every timestep takes
// the dense walk even where the event-driven walk would run.
func withDenseWalk() Option { return func(c *sessionConfig) { c.noEvent = true } }

// oracleActivities are the input-activity levels of the sparsity sweep.
var oracleActivities = []float64{0.01, 0.10, 0.50, 1.00}

// bernoulliEncoder turns each pixel's intensity into its per-timestep
// firing probability verbatim, so a constant image at activity a yields
// spike planes of expected density a.
func bernoulliEncoder() Option {
	return WithEncoder(func(r *rng.Rand) snn.Encoder { return snn.NewPoissonEncoder(1.0, r) })
}

// activityImages returns n copies of a constant image of the given
// shape whose every pixel carries the activity level as its intensity.
func activityImages(shape []int, activity float64, n int) []*tensor.Tensor {
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		img := tensor.New(shape...)
		d := img.Data()
		for j := range d {
			d[j] = activity
		}
		imgs[i] = img
	}
	return imgs
}

// TestSparseOracleSweep drives the trained MLP at 1%, 10%, 50% and 100%
// input activity and requires, at every level, the event-driven walk to
// match the forced-dense oracle bit for bit at parallelism 1, 4 and
// NumCPU, with the oracle never touching the packed path. At 100%
// every pixel fires every step, so the dense endpoint also exercises
// the timestep-repeat cache.
func TestSparseOracleSweep(t *testing.T) {
	c, te := chipFixture(t)
	img, _ := te.Sample(0)
	for _, act := range oracleActivities {
		t.Run(fmt.Sprintf("act=%g%%", act*100), func(t *testing.T) {
			assertEventMatchesDense(t, c, activityImages(img.Shape(), act, 8),
				WithMode(ModeSNN), WithTimesteps(40), WithSeed(42), bernoulliEncoder())
		})
	}
}

// benchmarkOracle times RunBatch over imgs on a noiseless chip and
// reports host nanoseconds per image. The first, untimed batch warms the
// session arena.
func benchmarkOracle(b *testing.B, imgs []*tensor.Tensor, opts ...Option) {
	c, _ := chipFixture(b)
	sess, err := eventChip().Compile(c, append([]Option{WithParallelism(1)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.RunBatch(ctx, imgs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.RunBatch(ctx, imgs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(imgs)), "ns/img")
}

// BenchmarkSparseOracle times the event-driven walk against the
// forced-dense oracle at each activity level of the sweep.
func BenchmarkSparseOracle(b *testing.B) {
	_, te := chipFixture(b)
	img, _ := te.Sample(0)
	for _, act := range oracleActivities {
		imgs := activityImages(img.Shape(), act, 16)
		opts := []Option{WithMode(ModeSNN), WithTimesteps(40), WithSeed(42), bernoulliEncoder()}
		b.Run(fmt.Sprintf("act=%g%%/dense", act*100), func(b *testing.B) {
			benchmarkOracle(b, imgs, append(opts, withDenseWalk())...)
		})
		b.Run(fmt.Sprintf("act=%g%%/event", act*100), func(b *testing.B) {
			benchmarkOracle(b, imgs, opts...)
		})
	}
}

// BenchmarkKernelOracle times the trained SNN workload with the read
// kernels off (the dense reference MACRead) and on, both on the dense
// walk so the two differ only in the read.
func BenchmarkKernelOracle(b *testing.B) {
	_, te := chipFixture(b)
	imgs := sessionImages(b, te, 16)
	opts := []Option{WithMode(ModeSNN), WithTimesteps(40), WithSeed(42), withDenseWalk()}
	b.Run("kernel-off", func(b *testing.B) { benchmarkOracle(b, imgs, append(opts, withKernelOff())...) })
	b.Run("kernel-on", func(b *testing.B) { benchmarkOracle(b, imgs, opts...) })
}
