package arch

import (
	"math"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestAccumulatorUnitRecoverRate(t *testing.T) {
	au := NewAccumulatorUnit(2.5)
	spike := tensor.FromSlice([]float64{1}, 1)
	quiet := tensor.FromSlice([]float64{0}, 1)
	// 3 spikes over 10 steps → rate 0.3 → activation 0.75.
	for i := 0; i < 10; i++ {
		if i < 3 {
			au.Accumulate(spike)
		} else {
			au.Accumulate(quiet)
		}
	}
	got := au.Read().Data()[0]
	if math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("AU read %v, want 0.75", got)
	}
	if au.Adds != 3 {
		t.Fatalf("adder ops %d, want 3 (event-driven adds)", au.Adds)
	}
	au.Reset()
	if au.Read() != nil {
		t.Fatal("Read after Reset should be nil")
	}
}

func TestChipRunHybridClassifies(t *testing.T) {
	c, te := chipFixture(t)
	chip := NewChip(device.DefaultParams(), crossbar.Config{}, nil)
	correct := 0
	const n, T = 20, 60
	results := runOnChip(t, chip, c, sessionImages(t, te, n),
		WithMode(ModeHybrid), WithHybridSplit(1), WithTimesteps(T), WithSeed(31))
	for i, res := range results {
		if _, label := te.Sample(i); res.Prediction == label {
			correct++
		}
		if res.Spikes <= 0 {
			t.Fatal("no spiking activity in hybrid front")
		}
	}
	if acc := float64(correct) / n; acc < 0.5 {
		t.Fatalf("hybrid hardware accuracy %.2f", acc)
	}
}

func TestChipRunHybridDeepSplit(t *testing.T) {
	// With all but one weighted layer in the ANN domain, accuracy should
	// approach the pure-ANN chip run.
	c, te := chipFixture(t)
	chip := NewChip(device.DefaultParams(), crossbar.Config{}, nil)
	matches := 0
	const n, T = 15, 80
	imgs := sessionImages(t, te, n)
	hyb := runOnChip(t, chip, c, imgs, WithMode(ModeHybrid), WithHybridSplit(2), WithTimesteps(T), WithSeed(33))
	ann := runOnChip(t, chip, c, imgs, WithMode(ModeANN))
	for i := range imgs {
		if hyb[i].Prediction == ann[i].Prediction {
			matches++
		}
	}
	if matches < n*2/3 {
		t.Fatalf("deep hybrid agrees with ANN on only %d/%d", matches, n)
	}
}

func TestChipRunHybridSplitBounds(t *testing.T) {
	c, _ := chipFixture(t)
	chip := NewChip(device.DefaultParams(), crossbar.Config{}, nil)
	if _, err := chip.Compile(c, WithMode(ModeHybrid), WithHybridSplit(0), WithTimesteps(5)); err == nil {
		t.Fatal("split 0 accepted")
	}
	if _, err := chip.Compile(c, WithMode(ModeHybrid), WithHybridSplit(3), WithTimesteps(5)); err == nil {
		t.Fatal("all-ANN split accepted (no spiking layer left)")
	}
}

func TestChipFaultResilience(t *testing.T) {
	// Neuromorphic inference degrades gracefully under stuck-at faults
	// (§IV-D: "neuromorphic applications are known to be resilient").
	// Each sample compiles its own session, so each sees a fresh draw of
	// the chip's fault population.
	c, te := chipFixture(t)
	accAt := func(rate float64) float64 {
		chip := NewChip(device.DefaultParams(), crossbar.Config{}, rng.New(21))
		chip.FaultRate = rate
		correct := 0
		const n, T = 20, 60
		for i := 0; i < n; i++ {
			img, label := te.Sample(i)
			res := runOnChip(t, chip, c, []*tensor.Tensor{img},
				WithMode(ModeSNN), WithTimesteps(T), WithSeed(23+uint64(i)))[0]
			if res.Prediction == label {
				correct++
			}
		}
		return float64(correct) / n
	}
	clean := accAt(0)
	mild := accAt(0.01)
	severe := accAt(0.30)
	if clean < 0.5 {
		t.Fatalf("clean hardware accuracy %v", clean)
	}
	if mild < clean-0.30 {
		t.Fatalf("1%% faults collapsed accuracy: %v → %v", clean, mild)
	}
	if severe > clean {
		t.Fatalf("30%% faults should not help: %v vs clean %v", severe, clean)
	}
}
