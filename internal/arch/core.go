package arch

import (
	"fmt"

	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/rng"
	"repro/internal/spikeplane"
	"repro/internal/tensor"
)

// ANNCore is a neural core configured for ANN inference: multi-level
// drivers, saturating-ReLU MTJ neurons, continuous outputs. The session
// engine's annExec drives it.
type ANNCore struct {
	ST *SuperTile
	// Clip is the neuron saturation ceiling in activation units (the
	// device's finite wall travel); outputs are max(0, min(Clip, x)).
	Clip float64
}

// NewANNCore builds an ANN core around a fresh super-tile.
func NewANNCore(p device.Params, cfg crossbar.Config, clip float64, noise *rng.Rand) *ANNCore {
	return &ANNCore{ST: NewSuperTile(p, cfg, noise), Clip: clip}
}

// Program loads the layer kernels (Rf×K) scaled to wmax.
func (c *ANNCore) Program(w *tensor.Tensor, wmax float64) error {
	return c.ST.Program(w, wmax)
}

// SNNCore is a neural core configured for spiking inference: 1-bit spike
// drivers and integrate-and-fire MTJ neurons whose domain-wall position
// stores the membrane potential between timesteps (§IV-B4) — no SRAM
// round-trips. The core holds the programmed crossbars only; each run
// of the session engine steps its own position-replica neuron bank
// (coreStep, coreStepEvent).
type SNNCore struct {
	ST *SuperTile
	// VTh is the firing threshold in activation units (1 after weight
	// normalization).
	VTh     float64
	kernels int
	// positions is the number of time-multiplexed output positions; a
	// run's replica bank holds kernels·positions neurons.
	positions int
}

// NewSNNCore builds an SNN core around a fresh super-tile.
func NewSNNCore(p device.Params, cfg crossbar.Config, vth float64, noise *rng.Rand) *SNNCore {
	return &SNNCore{ST: NewSuperTile(p, cfg, noise), VTh: vth}
}

// Program loads the layer kernels and sizes the MTJ neuron banks: one
// neuron per kernel per time-multiplexed output position. Positions
// model kernel replication — each replica's neuron holds its own
// position's membrane in its domain-wall, so no membrane ever visits
// SRAM (§IV-B4).
func (c *SNNCore) Program(w *tensor.Tensor, wmax float64, positions int) error {
	return c.program(w, wmax, positions, false)
}

// program is Program, or with restore set its restore-path half: the
// switch geometry and bank sizing are laid out identically, but no
// device is written — the image loader imports the recorded conductance
// state immediately afterwards.
func (c *SNNCore) program(km *tensor.Tensor, wmax float64, positions int, restore bool) error {
	if positions < 1 {
		return fmt.Errorf("arch: positions must be ≥ 1")
	}
	if err := c.ST.load(km, wmax, restore); err != nil {
		return err
	}
	c.kernels, c.positions = km.Dim(1), positions
	return nil
}

// integrateBankInto drives one replica bank of MTJ neurons with the evaluated
// membrane increments, writes the binary spike vector into out
// (len(sums)) and returns the number of spikes emitted. It maps a
// membrane increment of VTh to a full wall traversal within one 110 ns
// cycle: current = increment/VTh · (current that moves the wall the full
// length in one pulse) + the depinning offset.
//
// When pl is non-nil the packed spike plane of the fire vector is built
// during the same walk, so the event-driven engine skips the
// O(neurons) re-scan a post-hoc Pack would cost. The plane is bitwise
// what Pack(out) would produce: fires are exactly 1.0, so it stays
// binary.
//
//nebula:hotpath
func integrateBankInto(out []float64, pl *spikeplane.Plane, p device.Params, vth float64, bank []*device.SpikingNeuron, sums []float64) int64 {
	if pl != nil {
		pl.Reset(len(out))
	}
	for i := range out {
		out[i] = 0
	}
	span := p.LengthNM / (p.MobilityNMPerUAns * p.PulseNS)
	var spikes int64
	for i, inc := range sums {
		if inc == 0 {
			continue
		}
		mag := inc
		if mag < 0 {
			mag = -mag
		}
		cur := mag/vth*span + p.DepinningCurrentUA
		if inc < 0 {
			cur = -cur // inhibition drives the wall back toward reset
		}
		if bank[i].Integrate(cur, p.PulseNS) {
			out[i] = 1
			if pl != nil {
				pl.Set(i)
			}
			spikes++
		}
	}
	return spikes
}

// FitsInCore reports whether a kernel matrix of rf×k maps onto a single
// super-tile.
func FitsInCore(rf, k int) bool {
	stack := (rf + mapping.M - 1) / mapping.M
	sets := (k + mapping.M - 1) / mapping.M
	return rf <= mapping.MaxRowsPerNC && stack*sets <= mapping.ACsPerNC
}
