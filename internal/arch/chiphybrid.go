package arch

import "repro/internal/tensor"

// AccumulatorUnit is the digital spike-count accumulator of Fig. 6(c):
// an adder and a register per neuron, integrating the boundary spike
// train over the evidence window and scaling it back to activation units
// for the ANN cores.
type AccumulatorUnit struct {
	// Lambda is the activation scale of the boundary stage.
	Lambda float64
	counts *tensor.Tensor
	steps  int
	// Adds counts adder operations (for energy cross-checks).
	Adds int64
}

// NewAccumulatorUnit allocates an AU for the given boundary shape.
func NewAccumulatorUnit(lambda float64) *AccumulatorUnit {
	return &AccumulatorUnit{Lambda: lambda}
}

// Accumulate folds one timestep of boundary spikes into the registers.
func (au *AccumulatorUnit) Accumulate(spikes *tensor.Tensor) {
	if au.counts == nil {
		au.counts = tensor.New(spikes.Shape()...)
	}
	cd, sd := au.counts.Data(), spikes.Data()
	for i, v := range sd {
		if v != 0 {
			cd[i] += v
			au.Adds++
		}
	}
	au.steps++
}

// Read returns the recovered activation estimate: rate × λ.
func (au *AccumulatorUnit) Read() *tensor.Tensor {
	if au.counts == nil || au.steps == 0 {
		return nil
	}
	out := au.counts.Clone()
	out.ScaleInPlace(au.Lambda / float64(au.steps))
	return out
}

// Reset clears the registers.
func (au *AccumulatorUnit) Reset() {
	au.counts = nil
	au.steps = 0
	au.Adds = 0
}
