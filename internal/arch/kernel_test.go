package arch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/convert"
	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/rng"
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

// kernelCounts tallies the slot-routed arrays of a session (spiking
// cores, spill blocks and continuous cores) by kernel freshness. The
// unconfigured spares of a super-tile carry no weights and never bake.
func kernelCounts(s *Session) (fresh, stale int) {
	s.forEachSuperTile(func(st *SuperTile) {
		for slot := 0; slot < st.Slots(); slot++ {
			if st.SlotCrossbar(slot).KernelFresh() {
				fresh++
			} else {
				stale++
			}
		}
	})
	return fresh, stale
}

// assertKernelsBaked requires every slot-routed array to carry a fresh
// kernel — or, on the kernel-off oracle, none at all.
func assertKernelsBaked(t *testing.T, s *Session, after string) {
	t.Helper()
	fresh, stale := kernelCounts(s)
	if s.cfg.noKernel {
		if fresh != 0 {
			t.Fatalf("after %s: kernel-off oracle has %d arrays on the fast path", after, fresh)
		}
		return
	}
	if fresh == 0 || stale != 0 {
		t.Fatalf("after %s: %d fresh, %d stale arrays", after, fresh, stale)
	}
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
		assertKernelsBaked(t, compileSession(t, c, opts...), "compile")
	}
}

// cancelAfter is a context whose Err reports cancellation from its
// (n+1)-th call on, so a Scrub stops partway through its super-tiles.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestMaintenanceKeepsKernelsFresh pins the rebake-on-maintenance rule:
// AgeRetention, InjectStuckFaults, a Scrub cancelled partway and
// LoadSession each leave every slot-routed array with a fresh kernel, so
// no read between maintenance and the next Scrub can meet a stale one.
// The mutated sessions — aged, struck and half-scrubbed, never restored
// — must still run bitwise identical to the kernel-off oracle mutated
// the same way, on the dense (noisy) and event (noiseless) walks at
// parallelism 1, 4 and NumCPU.
func TestMaintenanceKeepsKernelsFresh(t *testing.T) {
	c, te := chipFixture(t)
	imgs := sessionImages(t, te, 6)
	ctx := context.Background()
	mutate := func(t *testing.T, s *Session) {
		t.Helper()
		s.AgeRetention(700)
		assertKernelsBaked(t, s, "AgeRetention")
		if n := s.InjectStuckFaults(9, 0.002, crossbar.StuckAP); n == 0 {
			t.Fatal("fault onset struck nothing")
		}
		assertKernelsBaked(t, s, "InjectStuckFaults")
		if _, err := s.Scrub(&cancelAfter{Context: ctx, n: 1}); !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted scrub returned %v, want context.Canceled", err)
		}
		assertKernelsBaked(t, s, "cancelled Scrub")
		if s.Pristine() {
			t.Fatal("mutated session claims pristine")
		}
	}
	for _, noisy := range []bool{true, false} {
		t.Run(fmt.Sprintf("noisy=%v", noisy), func(t *testing.T) {
			// Drift makes the ageing read-visible; read noise selects the
			// dense walk, its absence the event walk.
			cfg := crossbar.Config{DriftTauSteps: 5000}
			if noisy {
				cfg.ReadNoiseSigma = 0.05
			}
			compile := func(opts ...Option) *Session {
				t.Helper()
				var noise *rng.Rand
				if noisy {
					noise = rng.New(41)
				}
				opts = append([]Option{WithMode(ModeSNN), WithTimesteps(20), WithSeed(42)}, opts...)
				sess, err := NewChip(device.DefaultParams(), cfg, noise).Compile(c, opts...)
				if err != nil {
					t.Fatal(err)
				}
				mutate(t, sess)
				return sess
			}
			want, err := compile(withKernelOff()).RunBatch(ctx, imgs)
			if err != nil {
				t.Fatal(err)
			}
			check := func(tag string, sess *Session) {
				t.Helper()
				got, err := sess.RunBatch(ctx, imgs)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				for i := range want {
					wd, gd := want[i].Output.Data(), got[i].Output.Data()
					for j := range wd {
						if math.Float64bits(wd[j]) != math.Float64bits(gd[j]) {
							t.Fatalf("%s input %d col %d: %v != kernel-off %v", tag, i, j, gd[j], wd[j])
						}
					}
					if got[i].Prediction != want[i].Prediction || got[i].Spikes != want[i].Spikes {
						t.Fatalf("%s input %d: prediction/spikes diverged: %+v vs %+v", tag, i, got[i], want[i])
					}
				}
			}
			var last *Session
			for _, par := range []int{1, 4, runtime.NumCPU()} {
				last = compile(WithParallelism(par))
				check(fmt.Sprintf("parallelism %d", par), last)
			}
			var buf bytes.Buffer
			if err := last.SaveImage(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadSession(&buf)
			if err != nil {
				t.Fatal(err)
			}
			assertKernelsBaked(t, loaded, "LoadSession")
			check("loaded", loaded)
		})
	}
}
