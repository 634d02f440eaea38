package arch

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/convert"
	"repro/internal/tensor"
)

// assertKernelOffMatchesOn runs the same batch through the kernel-off
// oracle and through production sessions at parallelism 1, 4 and
// NumCPU, all over identically seeded chips, and requires every output,
// prediction and counter to match bit for bit. This is the end-to-end
// form of the crossbar-level differential tests: the baked fast path
// must be invisible.
func assertKernelOffMatchesOn(t *testing.T, c *convert.Converted, imgs []*tensor.Tensor, opts ...Option) {
	t.Helper()
	ctx := context.Background()
	dense := compileSession(t, c, append(append([]Option(nil), opts...), withKernelOff())...)
	want, err := dense.RunBatch(ctx, imgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4, runtime.NumCPU()} {
		fast := compileSession(t, c, append(append([]Option(nil), opts...), WithParallelism(par))...)
		got, err := fast.RunBatch(ctx, imgs)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for i := range want {
			wd, gd := want[i].Output.Data(), got[i].Output.Data()
			if len(wd) != len(gd) {
				t.Fatalf("parallelism %d input %d: output size %d, want %d", par, i, len(gd), len(wd))
			}
			for j := range wd {
				if wd[j] != gd[j] {
					t.Fatalf("parallelism %d input %d col %d: kernel %v != dense %v (frozen kernel not bitwise identical)",
						par, i, j, gd[j], wd[j])
				}
			}
			if got[i].Prediction != want[i].Prediction || got[i].Spikes != want[i].Spikes ||
				got[i].Cycles != want[i].Cycles || got[i].EDRAMAccesses != want[i].EDRAMAccesses {
				t.Fatalf("parallelism %d input %d: stats diverged: %+v vs %+v", par, i, got[i], want[i])
			}
		}
	}
}

func TestSessionFrozenKernelBitwiseANN(t *testing.T) {
	c, te := chipFixture(t)
	assertKernelOffMatchesOn(t, c, sessionImages(t, te, 8),
		WithMode(ModeANN), WithSeed(42))
}

func TestSessionFrozenKernelBitwiseSNN(t *testing.T) {
	c, te := chipFixture(t)
	assertKernelOffMatchesOn(t, c, sessionImages(t, te, 8),
		WithMode(ModeSNN), WithTimesteps(20), WithSeed(42))
}

func TestSessionFrozenKernelBitwiseHybrid(t *testing.T) {
	c, te := chipFixture(t)
	assertKernelOffMatchesOn(t, c, sessionImages(t, te, 8),
		WithMode(ModeHybrid), WithHybridSplit(1), WithTimesteps(20), WithSeed(42))
}

func TestSessionFrozenKernelBitwiseConv(t *testing.T) {
	// Both conv stages exercise the spike-list plumbing through the
	// window gather.
	c, d := convFixture(t)
	assertKernelOffMatchesOn(t, c, sessionImages(t, d, 6),
		WithMode(ModeSNN), WithTimesteps(10), WithSeed(42), WithInputShape(4, 8, 8))
}

// TestCompileBakesKernels asserts the compile-time bake actually leaves
// every programmed array on the fast path, and that the kernel-off
// oracle leaves every array on the dense path.
func TestCompileBakesKernels(t *testing.T) {
	c, _ := chipFixture(t)
	for _, on := range []bool{true, false} {
		opts := []Option{WithMode(ModeSNN), WithTimesteps(20)}
		if !on {
			opts = append(opts, withKernelOff())
		}
		sess := compileSession(t, c, opts...)
		fresh, stale := 0, 0
		for _, hw := range sess.snnStages {
			if hw.snnCore == nil {
				continue
			}
			// Only slot-routed arrays carry programmed weights; the
			// unconfigured spares of the super-tile never bake.
			for _, slot := range hw.snnCore.ST.slotAC {
				if hw.snnCore.ST.acs[slot].KernelFresh() {
					fresh++
				} else {
					stale++
				}
			}
		}
		if on && (fresh == 0 || stale != 0) {
			t.Fatalf("production: %d fresh, %d stale arrays", fresh, stale)
		}
		if !on && fresh != 0 {
			t.Fatalf("kernel-off oracle: %d arrays still on the fast path", fresh)
		}
	}
}
