package arch

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/spikeplane"
	"repro/internal/tensor"
)

// This file is the session execution engine: the unified stage stepper
// shared by every mode, the per-run scratch arena, and the RunBatch
// worker pool. Every run reads the programmed state through the frozen
// read kernels without mutating it, so any number of workers may run
// concurrently. A run without a read-noise stream takes the
// event-driven walk (bit-packed spike planes, silent-stage skips, the
// timestep-repeat cache); a noisy run takes the dense walk, because
// skipping a read would shift its noise draws (DESIGN.md §15).

// runStreams are the two private RNG streams reserved for one input:
// the encoder stream and the crossbar read-noise stream. Reservation
// happens in input order under the session mutex, which is what makes
// batched results bitwise identical to sequential runs at any
// parallelism.
type runStreams struct {
	enc, noise *rng.Rand
}

// reserveStreams draws n stream pairs from the session parent in input
// order.
func (s *Session) reserveStreams(n int) []runStreams {
	out := make([]runStreams, n)
	s.mu.Lock()
	for i := range out {
		out[i].enc = s.streams.Split()
		out[i].noise = s.streams.Split()
	}
	s.mu.Unlock()
	return out
}

// runState is the per-run mutable half of a compiled session: one entry
// per spiking stage plus the hybrid accumulator. Instances are recycled
// through the session arena; reset returns every component to the
// post-programming rest state so each run is an independent inference.
type runState struct {
	stages []*stageRun
	au     *AccumulatorUnit
	// encPlane is the packed spike plane of the encoder's output, the
	// head of the event-driven plane chain threaded through the stages.
	encPlane spikeplane.Plane
	// encT is the recycled encoder output buffer (IntoEncoder path).
	encT *tensor.Tensor
}

// stageRun holds one stage's per-run state. Exactly one group of the
// semantic fields is populated, matching the stage kind; the scratch
// fields below them are reused across the stage's timesteps so the
// steady-state hot loop allocates nothing per step.
type stageRun struct {
	// neurons is the position-replica MTJ bank of an in-core stage.
	neurons []*device.SpikingNeuron
	// membranes are the RU registers of a spill stage.
	membranes []float64
	// poolIF is the IF bank following NU average pooling.
	poolIF *snn.IFState
	// outAcc accumulates read-out increments across timesteps.
	outAcc *tensor.Tensor

	// sums receives the stage's crossbar column sums. fire receives the
	// spike vector; its tensor wrapper is rebuilt per step (cheap header).
	sums, fire []float64
	// act gathers the indices of the non-zero input entries — the spike
	// list handed down to the crossbar kernels.
	act []int
	// sc holds the super-tile evaluation scratch (window, partials,
	// per-height active lists).
	sc EvalScratch
	// total accumulates a spill stage's digitized block partials.
	total []float64
	// colBuf is a conv stage's receptive-field window, gathered straight
	// from the input map; convOut is its reused output plane.
	colBuf  []float64
	convOut *tensor.Tensor
	// poolAvg / poolOut are a pool stage's reused average-pooled current
	// and IF spike output.
	poolAvg, poolOut *tensor.Tensor
	// outInc is the read-out stage's per-step increment row; outIncFlat
	// is the same buffer viewed as a vector.
	outInc, outIncFlat *tensor.Tensor
	// fireT is the cached tensor view over fire a dense stage emits.
	fireT *tensor.Tensor

	// outPlane is the stage's packed output spike plane (event path).
	outPlane spikeplane.Plane
	// winPlane is the packed scratch for conv receptive-field windows
	// and spill-block views.
	winPlane spikeplane.Plane
	// poolZero is the cached zero output of a silent pool stage.
	poolZero *tensor.Tensor

	// Timestep-repeat cache of a dense in-core stage (event path).
	// The cached column sums are a pure function of (input values,
	// conductance generation), so the cache stays valid across runs
	// recycled through the arena; lastIn is only kept for graded
	// (non-binary) planes, whose bit pattern underdetermines the
	// values. lastCross is the cached read's crossbar-stats delta,
	// replayed on a hit so accounting is identical either way.
	lastPlane spikeplane.Plane
	lastIn    []float64
	lastSums  []float64
	lastCross crossbar.Stats
	lastGen   uint64
	haveLast  bool
}

// newRunState allocates scratch state shaped for the compiled pipeline.
func (s *Session) newRunState() *runState {
	st := &runState{stages: make([]*stageRun, len(s.snnStages))}
	for i, hw := range s.snnStages {
		sr := &stageRun{}
		switch {
		case hw.snnCore != nil:
			sr.neurons = make([]*device.SpikingNeuron, hw.snnCore.kernels*hw.snnCore.positions)
			for j := range sr.neurons {
				sr.neurons[j] = device.NewSpikingNeuron(hw.snnCore.ST.P)
			}
			sr.sums = make([]float64, hw.snnCore.ST.cols)
			sr.fire = make([]float64, hw.snnCore.ST.cols)
		case hw.spill != nil:
			sr.membranes = make([]float64, hw.spill.kernels*hw.spill.positions)
			sr.sums = make([]float64, hw.spill.kernels)
			sr.total = make([]float64, hw.spill.kernels)
			sr.fire = make([]float64, hw.spill.kernels)
		case hw.kind == "pool":
			sr.poolIF = snn.NewIFState(1.0, snn.ResetToZero)
		}
		st.stages[i] = sr
	}
	if s.cfg.Mode == ModeHybrid {
		st.au = NewAccumulatorUnit(s.lambda)
	}
	return st
}

// reset returns the scratch state to rest.
func (st *runState) reset() {
	for _, sr := range st.stages {
		for _, n := range sr.neurons {
			n.Reset()
		}
		for i := range sr.membranes {
			sr.membranes[i] = 0
		}
		if sr.poolIF != nil {
			sr.poolIF.Reset()
		}
		sr.outAcc = nil
	}
	if st.au != nil {
		st.au.Reset()
	}
}

// execEnv parameterizes one run's execution regime.
type execEnv struct {
	// noise is the run's private read-noise stream (nil when the chip has
	// no noise generator).
	noise *rng.Rand
	// cross collects the run's crossbar activity.
	cross crossbar.Stats
	// shard is the run's private counter shard (nil: observation
	// disabled, the engine takes no accounting branches).
	shard *obs.RunRecord
	// hops is the mesh distance charged per inter-stage packet.
	hops int64
	// event selects the bit-packed event-driven stepping path: spike
	// planes thread between stages, silent stages and windows skip
	// their reads, and dense stages consult the timestep-repeat cache.
	// Only enabled with a nil read-noise stream, so skipping reads
	// cannot shift an RNG stream (DESIGN.md §15).
	event bool
	// sc is the evaluation scratch of callers without a stage-owned one
	// (the continuous ANN stages).
	sc EvalScratch
}

// stageMark snapshots the run counters before one stage executes, so
// the stage's contribution can be attributed as a delta afterwards.
type stageMark struct {
	cycles, spikes, packets, hops, adc, edram int64
	skips, skipped, packed, repeats           int64
	cross                                     crossbar.Stats
}

// mark snapshots the current counters.
func (env *execEnv) mark(res *RunResult) stageMark {
	m := stageMark{cycles: res.Cycles, spikes: res.Spikes, packets: res.NoCPackets,
		hops: res.NoCHops, adc: res.ADCConversions, edram: res.EDRAMAccesses,
		skips: res.SilentStageSkips, skipped: res.SpikesSkipped,
		packed: res.PackedWords, repeats: res.RepeatReads, cross: env.cross}
	return m
}

// observe folds the delta since m into one shard bucket and returns the
// stage's spike count for tracing.
func (env *execEnv) observe(m stageMark, res *RunResult, c *obs.Counters) int64 {
	dSpikes := res.Spikes - m.spikes
	c.SpikesEmitted += dSpikes
	c.Cycles += res.Cycles - m.cycles
	c.NoCPackets += res.NoCPackets - m.packets
	c.NoCHops += res.NoCHops - m.hops
	c.ADCConversions += res.ADCConversions - m.adc
	c.EDRAMAccesses += res.EDRAMAccesses - m.edram
	c.SilentStageSkips += res.SilentStageSkips - m.skips
	c.SpikesSkipped += res.SpikesSkipped - m.skipped
	c.PackedWords += res.PackedWords - m.packed
	c.RepeatReads += res.RepeatReads - m.repeats
	d := env.cross.Diff(m.cross)
	c.MACReads += d.MACs
	c.ActiveRowSum += d.ActiveRowSum
	c.OutputCurrentUA += d.OutputCurrentUA
	return dSpikes
}

// evaluate reads a super-tile on the dense walk: the result lands in dst
// (allocated when nil) through the baked kernels, skipping the rows
// outside act — the spike list of the previous layer (nil: scan the
// input).
//
//nebula:hotpath
func (env *execEnv) evaluate(st *SuperTile, in []float64, act []int, dst []float64, sc *EvalScratch) ([]float64, error) {
	if dst == nil || len(dst) != st.cols {
		dst = make([]float64, st.cols)
	}
	if sc == nil {
		sc = &env.sc
	}
	if err := st.EvaluateReadInto(dst, in, act, env.noise, &env.cross, sc); err != nil {
		return nil, err
	}
	return dst, nil
}

// coreStep advances one in-core spiking position by one timestep against
// the run's private neuron bank: binary input spikes drive the crossbar,
// the summed source-line current displaces each position-neuron's domain
// wall in proportion to its membrane increment, and neurons whose wall
// reaches the far edge emit a spike and self-reset. act is the input
// spike list (nil: scan); the spike vector returned aliases sr.fire and
// is valid until the stage's next step.
//
//nebula:hotpath
func (env *execEnv) coreStep(core *SNNCore, sr *stageRun, pos int, in []float64, act []int, bias []float64, res *RunResult) ([]float64, error) {
	bank := sr.neurons
	if (pos+1)*core.kernels > len(bank) {
		return nil, fmt.Errorf("arch: position %d beyond allocated replicas", pos)
	}
	res.Cycles++ // cycle 1: eDRAM → IB
	res.EDRAMAccesses++
	sums, err := env.evaluate(core.ST, in, act, sr.sums, &sr.sc)
	if err != nil {
		return nil, err
	}
	res.Cycles++ // cycle 2: drive crossbars, integrate at NU
	if bias != nil {
		for i := range sums {
			if i < len(bias) {
				sums[i] += bias[i]
			}
		}
	}
	if len(sr.fire) != len(sums) {
		sr.fire = make([]float64, len(sums))
	}
	spikes := integrateBankInto(sr.fire, nil, core.ST.P, core.VTh, bank[pos*core.kernels:(pos+1)*core.kernels], sums)
	res.Spikes += spikes
	res.Cycles++ // cycle 3: OB → eDRAM
	res.EDRAMAccesses++
	return sr.fire, nil
}

// float64sEqual reports bitwise equality of two value vectors.
//
//nebula:hotpath
func float64sEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// coreStepEvent is coreStep on the event-driven path: the input spike
// plane drives a packed super-tile read (silent stack-height windows
// skip their AC reads entirely), and dense stages additionally consult
// the timestep-repeat cache — when the input plane and the
// super-tile's conductance generation both match the previous step,
// the cached column sums and the read's crossbar-stats delta are
// replayed instead of recomputed. Membrane integration always runs
// against the replica bank, so neuron state stays cycle-exact and the
// emitted spikes are bitwise identical to the dense walk. When outPl
// is non-nil the emitted fire vector's plane is built during the
// integrate walk (no separate Pack scan).
//
//nebula:hotpath
func (env *execEnv) coreStepEvent(core *SNNCore, sr *stageRun, pos int, in []float64, pl *spikeplane.Plane, outPl *spikeplane.Plane, bias []float64, useCache bool, res *RunResult) ([]float64, error) {
	bank := sr.neurons
	if (pos+1)*core.kernels > len(bank) {
		return nil, fmt.Errorf("arch: position %d beyond allocated replicas", pos)
	}
	res.Cycles++ // cycle 1: eDRAM → IB
	res.EDRAMAccesses++
	res.PackedWords += int64(len(pl.WordSlice()))
	res.SpikesSkipped += int64(pl.Len() - pl.Count())
	if len(sr.sums) != core.ST.cols {
		sr.sums = make([]float64, core.ST.cols)
	}
	hit := false
	if useCache && sr.haveLast {
		if gen := core.ST.GenSum(); gen == sr.lastGen &&
			pl.Binary() == sr.lastPlane.Binary() &&
			pl.EqualWords(&sr.lastPlane) &&
			(pl.Binary() || float64sEqual(in, sr.lastIn)) {
			copy(sr.sums, sr.lastSums)
			res.RepeatReads++
			hit = true
		}
	}
	if !hit {
		// Evaluate into a private stats bucket and fold it below with
		// the exact adds the hit path replays — that shared fold is
		// what makes a cache hit's accounting bitwise identical to a
		// miss (a scalar after-minus-before delta would round
		// differently than the original per-array accumulation).
		sr.lastCross = crossbar.Stats{}
		if err := core.ST.EvaluateReadPacked(sr.sums, in, pl, &sr.lastCross, &sr.sc); err != nil {
			return nil, err
		}
		if useCache {
			sr.lastPlane.CopyFrom(pl)
			if !pl.Binary() {
				sr.lastIn = append(sr.lastIn[:0], in...)
			}
			if len(sr.lastSums) != len(sr.sums) {
				sr.lastSums = make([]float64, len(sr.sums))
			}
			copy(sr.lastSums, sr.sums)
			sr.lastGen = core.ST.GenSum()
			sr.haveLast = true
		}
	}
	env.cross.MACs += sr.lastCross.MACs
	env.cross.ActiveRowSum += sr.lastCross.ActiveRowSum
	env.cross.OutputCurrentUA += sr.lastCross.OutputCurrentUA
	sums := sr.sums
	res.Cycles++ // cycle 2: drive crossbars, integrate at NU
	if bias != nil {
		for i := range sums {
			if i < len(bias) {
				sums[i] += bias[i]
			}
		}
	}
	if len(sr.fire) != len(sums) {
		sr.fire = make([]float64, len(sums))
	}
	res.Spikes += integrateBankInto(sr.fire, outPl, core.ST.P, core.VTh, bank[pos*core.kernels:(pos+1)*core.kernels], sums)
	res.Cycles++ // cycle 3: OB → eDRAM
	res.EDRAMAccesses++
	return sr.fire, nil
}

// spillStep advances one spill-stage position against the run's private
// RU membrane registers: every block evaluates its row slice, each
// partial sum is digitized, the RU reduces them and updates the digital
// membranes, and threshold crossings emit spikes (reset by subtraction,
// matching the converted network). The spike vector returned aliases
// sr.fire. Spill blocks let the kernels rediscover their slice's
// activity (the per-block row windows would need the spike list
// re-based anyway).
//
//nebula:hotpath
func (env *execEnv) spillStep(sp *RUSpillCore, sr *stageRun, pos int, in, bias []float64, pl *spikeplane.Plane, res *RunResult) ([]float64, error) {
	membranes := sr.membranes
	if (pos+1)*sp.kernels > len(membranes) {
		return nil, fmt.Errorf("arch: position %d beyond allocated registers", pos)
	}
	if len(in) != sp.rowBounds[len(sp.rowBounds)-1] {
		return nil, fmt.Errorf("arch: input length %d, want %d", len(in), sp.rowBounds[len(sp.rowBounds)-1])
	}
	res.Cycles++ // fetch
	res.EDRAMAccesses++
	if len(sr.total) != sp.kernels {
		sr.total = make([]float64, sp.kernels)
	}
	total := sr.total
	for i := range total {
		total[i] = 0
	}
	if env.event && pl != nil {
		res.PackedWords += int64(len(pl.WordSlice()))
		res.SpikesSkipped += int64(pl.Len() - pl.Count())
	}
	for b, st := range sp.blocks {
		lo, hi := sp.rowBounds[b], sp.rowBounds[b+1]
		var part []float64
		if env.event && pl != nil {
			// Event path: window the stage's spike plane onto this
			// block's rows (block bounds are 64-aligned, so the view is
			// a subslice). A silent block contributes quantizePartial(0)
			// = +0 to every kernel, exactly what total already holds —
			// skip its reads and conversion charges. The membrane loop
			// below always runs, because residual potentials can cross
			// threshold on zero input.
			win := spikeplane.Window(pl.WordSlice(), lo, hi, nil)
			if spikeplane.IsZeroWords(win) {
				continue
			}
			sr.winPlane.AsView(win, hi-lo, pl.Binary())
			if len(sr.sums) != st.cols {
				sr.sums = make([]float64, st.cols)
			}
			if err := st.EvaluateReadPacked(sr.sums, in[lo:hi], &sr.winPlane, &env.cross, &sr.sc); err != nil {
				return nil, err
			}
			part = sr.sums
		} else {
			var err error
			part, err = env.evaluate(st, in[lo:hi], nil, sr.sums, &sr.sc)
			if err != nil {
				return nil, err
			}
		}
		// Digitize the block's partial sums (one conversion per kernel).
		for kIdx, v := range part {
			total[kIdx] += sp.quantizePartial(v)
		}
		res.ADCConversions += int64(sp.kernels)
		res.Cycles++ // one digitization cycle per block (≤128/cycle)
	}
	res.Cycles++ // reduce + activate at the RU
	bank := membranes[pos*sp.kernels : (pos+1)*sp.kernels]
	if len(sr.fire) != sp.kernels {
		sr.fire = make([]float64, sp.kernels)
	}
	out := sr.fire
	for i := range out {
		out[i] = 0
	}
	// On the event path the fire plane is built during this walk, so
	// the caller hands the packed output on without a Pack re-scan.
	fill := env.event && pl != nil
	if fill {
		sr.outPlane.Reset(sp.kernels)
	}
	for kIdx := range bank {
		inc := total[kIdx]
		if bias != nil && kIdx < len(bias) {
			inc += bias[kIdx]
		}
		bank[kIdx] += inc
		if bank[kIdx] >= sp.VTh {
			out[kIdx] = 1
			if fill {
				sr.outPlane.Set(kIdx)
			}
			bank[kIdx] -= sp.VTh
			res.Spikes++
		}
	}
	res.Cycles++ // write back
	res.EDRAMAccesses++
	return out, nil
}

// biasData unwraps an optional bias tensor.
func biasData(b *tensor.Tensor) []float64 {
	if b == nil {
		return nil
	}
	return b.Data()
}

// convGeom is the spatial geometry of one conv stage applied to an
// h×w input map.
type convGeom struct {
	h, w, kh, kw, stride, pad int
}

// outSize returns the output map's height and width.
func (g convGeom) outSize() (oh, ow int) {
	return tensor.ConvOutSize(g.h, g.kh, g.stride, g.pad), tensor.ConvOutSize(g.w, g.kw, g.stride, g.pad)
}

// gather copies the receptive field of output position (oi, oj) over
// the channels [c0, c0+len(dst)/(kh*kw)) of the C×H×W map x into dst,
// in im2col row order ((ch-c0)*kh+ki)*kw+kj. dst is then bitwise the
// matching column of tensor.Im2Col over those channels: padding reads
// as +0 and every other row is a straight copy.
//
//nebula:hotpath
func (g convGeom) gather(dst, x []float64, c0, oi, oj int) {
	i0, j0 := oi*g.stride-g.pad, oj*g.stride-g.pad
	inside := j0 >= 0 && j0+g.kw <= g.w
	area := g.h * g.w
	r := 0
	for ch := c0; ch < c0+len(dst)/(g.kh*g.kw); ch++ {
		for ki := 0; ki < g.kh; ki++ {
			seg := dst[r : r+g.kw]
			r += g.kw
			ii := i0 + ki
			if ii < 0 || ii >= g.h {
				for kj := range seg {
					seg[kj] = 0
				}
				continue
			}
			row := x[ch*area+ii*g.w : ch*area+(ii+1)*g.w]
			if inside {
				copy(seg, row[j0:j0+g.kw])
				continue
			}
			for kj := range seg {
				if jj := j0 + kj; jj >= 0 && jj < g.w {
					seg[kj] = row[jj]
				} else {
					seg[kj] = 0
				}
			}
		}
	}
}

// convStep steps every (group, output position) replica bank of a conv
// stage by one timestep: it gathers the receptive-field window from the
// input map x into sr.colBuf, reads it through the stage's kernel
// matrix, and writes the bank's spikes into the channel-major output
// map od. On the event path od arrives pre-zeroed, each window's spike
// plane is packed from the gathered window, and silent windows skip
// their bank; the dense walk collects the window's spike list instead.
//
//nebula:hotpath
func (env *execEnv) convStep(hw *stageHW, sr *stageRun, x []float64, geo convGeom, od []float64, event bool, res *RunResult) error {
	gcIn := hw.inC / hw.groups
	gcOut := hw.outC / hw.groups
	oh, ow := geo.outSize()
	npos := oh * ow
	colBuf := sr.colBuf
	bias := biasData(hw.bias)
	for g := 0; g < hw.groups; g++ {
		for pos := 0; pos < npos; pos++ {
			geo.gather(colBuf, x, g*gcIn, pos/ow, pos%ow)
			// Grouped case: per-group kernel matrices share the row
			// space; each (position, group) pair owns a replica bank.
			bankPos := pos
			if hw.groups > 1 {
				bankPos = pos*hw.groups + g
			}
			var spikes []float64
			var err error
			if event {
				// A window is a gather, not a slice of the input plane,
				// so its spike plane is packed per window.
				wp := &sr.winPlane
				wp.Pack(colBuf)
				if bias == nil && wp.IsZero() {
					// Silent window: the replica bank integrates
					// nothing and every output slot stays zero.
					res.PackedWords += int64(len(wp.WordSlice()))
					res.SpikesSkipped += int64(len(colBuf))
					continue
				}
				spikes, err = env.coreStepEvent(hw.snnCore, sr, bankPos, colBuf, wp, nil, bias, false, res)
			} else {
				// The window's spike list lets the kernels skip silent
				// rows.
				sr.act = sr.act[:0]
				for r, v := range colBuf {
					if v != 0 {
						sr.act = append(sr.act, r)
					}
				}
				spikes, err = env.coreStep(hw.snnCore, sr, bankPos, colBuf, sr.act, bias, res)
			}
			if err != nil {
				return err
			}
			for k := g * gcOut; k < (g+1)*gcOut; k++ {
				od[k*npos+pos] = spikes[k]
			}
		}
	}
	return nil
}

// poolStep is one timestep of a pool stage: NU average pooling of x
// into sr.poolAvg, then the stage's IF bank firing into sr.poolOut.
//
//nebula:hotpath
func poolStep(sr *stageRun, x *tensor.Tensor, k, stride int) {
	snn.AvgPoolInto(sr.poolAvg, x, k, stride)
	sr.poolIF.FireInto(sr.poolOut, sr.poolAvg)
}

// stepStage advances one spiking stage by one timestep. pl is the
// packed spike plane of x on the event-driven path (nil selects the
// dense walk); the returned plane covers the returned tensor and is nil
// when the stage does not produce one. Event-driven
// skips are value-preserving by construction: a silent stage or window
// can only be skipped when doing so leaves every membrane, accumulator
// and output bit identical to the dense walk (DESIGN.md §15).
func (env *execEnv) stepStage(hw *stageHW, sr *stageRun, x *tensor.Tensor, pl *spikeplane.Plane, res *RunResult) (*tensor.Tensor, *spikeplane.Plane, error) {
	switch hw.kind {
	case "conv":
		if hw.snnCore.positions == 0 {
			return nil, nil, fmt.Errorf("arch: conv stage not programmed (compile with WithInputShape)")
		}
		if x.NDim() != 3 || x.Dim(0) != hw.inC {
			return nil, nil, fmt.Errorf("arch: conv stage %s input shape %v, want %d channels", hw.name, x.Shape(), hw.inC)
		}
		geo := convGeom{h: x.Dim(1), w: x.Dim(2), kh: hw.kh, kw: hw.kw, stride: hw.stride, pad: hw.pad}
		oh, ow := geo.outSize()
		out := sr.convOut
		if out == nil || out.Dim(0) != hw.outC || out.Dim(1) != oh || out.Dim(2) != ow {
			out = tensor.New(hw.outC, oh, ow)
			sr.convOut = out
		}
		if pl != nil {
			// Event path: pre-zero the output plane so skipped positions
			// need no writes, and take the whole-stage exit on a silent
			// input (zero windows integrate nothing, so no neuron state
			// moves; a bias would break that, hence the guard).
			od := out.Data()
			for i := range od {
				od[i] = 0
			}
			res.PackedWords += int64(len(pl.WordSlice()))
			if hw.bias == nil && pl.IsZero() {
				res.SilentStageSkips++
				res.SpikesSkipped += int64(pl.Len())
				sr.outPlane.Reset(out.Size())
				return out, &sr.outPlane, nil
			}
		}
		rfg := hw.inC / hw.groups * hw.kh * hw.kw
		if len(sr.colBuf) != rfg {
			sr.colBuf = make([]float64, rfg)
		}
		if err := env.convStep(hw, sr, x.Data(), geo, out.Data(), pl != nil, res); err != nil {
			return nil, nil, err
		}
		// Spikes travel to the consumer stage over the mesh.
		res.NoCPackets++
		res.NoCHops += env.hops
		if pl != nil {
			sr.outPlane.Pack(out.Data())
			return out, &sr.outPlane, nil
		}
		return out, nil, nil
	case "dense":
		flat := x.Reshape(x.Size())
		var spikes []float64
		var err error
		switch {
		case hw.spill != nil:
			spikes, err = env.spillStep(hw.spill, sr, 0, flat.Data(), biasData(hw.bias), pl, res)
		case pl != nil:
			if hw.bias == nil && pl.IsZero() {
				// Whole-stage skip: integrateBankInto ignores zero
				// increments, so the dense walk would touch no neuron
				// and emit no spike — return the zero vector without
				// charging cycles, packets or accesses.
				res.SilentStageSkips++
				res.PackedWords += int64(len(pl.WordSlice()))
				res.SpikesSkipped += int64(pl.Len())
				if len(sr.fire) != hw.snnCore.ST.cols {
					sr.fire = make([]float64, hw.snnCore.ST.cols)
				}
				for i := range sr.fire {
					sr.fire[i] = 0
				}
				if sr.fireT == nil || sr.fireT.Size() != len(sr.fire) {
					sr.fireT = tensor.FromSlice(sr.fire, len(sr.fire))
				}
				sr.outPlane.Reset(len(sr.fire))
				return sr.fireT, &sr.outPlane, nil
			}
			spikes, err = env.coreStepEvent(hw.snnCore, sr, 0, flat.Data(), pl, &sr.outPlane, biasData(hw.bias), true, res)
		default:
			// Gather the previous layer's spike list so the crossbar
			// kernels touch only the active rows.
			act := sr.act[:0]
			for i, v := range flat.Data() {
				if v != 0 {
					act = append(act, i)
				}
			}
			sr.act = act
			spikes, err = env.coreStep(hw.snnCore, sr, 0, flat.Data(), act, biasData(hw.bias), res)
		}
		if err != nil {
			return nil, nil, err
		}
		res.NoCPackets++
		res.NoCHops += env.hops
		// spikes aliases sr.fire, whose backing array only changes when
		// its length does — the cached view stays valid.
		if sr.fireT == nil || sr.fireT.Size() != len(spikes) {
			sr.fireT = tensor.FromSlice(spikes, len(spikes))
		}
		if pl != nil {
			// sr.outPlane was filled during the integrate (coreStepEvent)
			// or threshold (spillStep) walk — no Pack re-scan needed.
			return sr.fireT, &sr.outPlane, nil
		}
		return sr.fireT, nil, nil
	case "pool":
		if pl != nil {
			res.PackedWords += int64(len(pl.WordSlice()))
			if pl.IsZero() {
				// Silent input: average pooling of zeros is zero, and a
				// zero-current IF step moves no membrane (leak 1, no
				// refractory) and fires nothing — the cached zero
				// output is the exact dense result.
				res.SilentStageSkips++
				res.SpikesSkipped += int64(pl.Len())
				if sr.poolZero == nil {
					sr.poolZero = snn.AvgPool(x, hw.pool.K, hw.pool.Stride)
				}
				sr.outPlane.Reset(sr.poolZero.Size())
				return sr.poolZero, &sr.outPlane, nil
			}
		}
		oh := tensor.ConvOutSize(x.Dim(1), hw.pool.K, hw.pool.Stride, 0)
		ow := tensor.ConvOutSize(x.Dim(2), hw.pool.K, hw.pool.Stride, 0)
		if sr.poolOut == nil || sr.poolOut.Dim(0) != x.Dim(0) || sr.poolOut.Dim(1) != oh || sr.poolOut.Dim(2) != ow {
			sr.poolAvg = tensor.New(x.Dim(0), oh, ow)
			sr.poolOut = tensor.New(x.Dim(0), oh, ow)
		}
		poolStep(sr, x, hw.pool.K, hw.pool.Stride)
		if pl != nil {
			sr.outPlane.Pack(sr.poolOut.Data())
			return sr.poolOut, &sr.outPlane, nil
		}
		return sr.poolOut, nil, nil
	case "flatten":
		// Flattening reorders nothing, so the plane carries over.
		return x.Reshape(x.Size()), pl, nil
	case "output":
		// Digital accumulation at the routing units.
		flat := x.Reshape(1, -1)
		n := hw.outW.Dim(0)
		if sr.outInc == nil || sr.outInc.Dim(1) != n {
			sr.outInc = tensor.New(1, n)
			sr.outIncFlat = sr.outInc.Reshape(n)
		}
		if sr.outAcc == nil {
			sr.outAcc = tensor.New(n)
		}
		if pl != nil {
			res.PackedWords += int64(len(pl.WordSlice()))
			if hw.outB == nil && pl.IsZero() {
				// Silent timestep contributes exactly zero to every
				// class accumulator — skip the read-out entirely.
				res.SilentStageSkips++
				res.SpikesSkipped += int64(pl.Len())
				return sr.outAcc, nil, nil
			}
			if pl.Binary() {
				// Binary plane: each active bit contributes its weight
				// verbatim (1.0·w == w), and summing in ascending index
				// order matches the dense inner product bit for bit —
				// skipped zero terms only ever add ±0 to a sum that is
				// never −0.
				wd := hw.outW.Data()
				inLen := flat.Size()
				od := sr.outIncFlat.Data()
				for k := 0; k < n; k++ {
					row := wd[k*inLen : (k+1)*inLen]
					s := 0.0
					it := pl.Iter()
					for j, ok := it.Next(); ok; j, ok = it.Next() {
						s += row[j]
					}
					od[k] = s
				}
				res.SpikesSkipped += int64(pl.Len() - pl.Count())
			} else {
				tensor.MatMulTransBInto(sr.outInc, flat, hw.outW)
			}
			if hw.outB != nil {
				sr.outInc.Row(0).AddInPlace(hw.outB)
			}
			sr.outAcc.AddInPlace(sr.outIncFlat)
			// The accumulator is only read after the final timestep;
			// returning it uncloned avoids a per-step allocation.
			return sr.outAcc, nil, nil
		}
		tensor.MatMulTransBInto(sr.outInc, flat, hw.outW)
		if hw.outB != nil {
			sr.outInc.Row(0).AddInPlace(hw.outB)
		}
		sr.outAcc.AddInPlace(sr.outIncFlat)
		return sr.outAcc.Clone(), nil, nil
	}
	return nil, nil, fmt.Errorf("arch: unknown stage kind %q", hw.kind)
}

// annExec drives a batch of input vectors (the im2col columns of one
// image, values in [0, 1]) through an ANN core, applying the saturating
// rectification of the non-spiking MTJ neuron (Fig. 2(b)) with the stage
// bias injected pre-saturation. Pipeline accounting follows Fig. 8:
// fetch, evaluate, write back.
func (env *execEnv) annExec(core *ANNCore, inputs [][]float64, bias *tensor.Tensor, res *RunResult) ([][]float64, error) {
	bd := biasData(bias)
	out := make([][]float64, len(inputs))
	for i, in := range inputs {
		res.Cycles++ // cycle 1: eDRAM → IB
		res.EDRAMAccesses++
		sums, err := env.evaluate(core.ST, in, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		res.Cycles++ // cycle 2: drive crossbars, threshold at NU
		row := make([]float64, len(sums))
		for j, v := range sums {
			if bd != nil {
				// Bias is added pre-saturation: rectify the raw sum at a
				// lifted ceiling, inject the bias, then apply the device
				// transfer.
				if v < 0 {
					v = 0
				} else if v > 1e18 {
					v = 1e18
				}
				if j < len(bd) {
					v += bd[j]
				}
			}
			if v < 0 {
				v = 0
			} else if v > core.Clip {
				v = core.Clip
			}
			row[j] = v
		}
		out[i] = row
		res.Cycles++ // cycle 3: OB → eDRAM
		res.EDRAMAccesses++
	}
	return out, nil
}

// annStage executes one compiled stage in ANN mode.
func (env *execEnv) annStage(hw *annStageHW, x *tensor.Tensor, res *RunResult) (*tensor.Tensor, error) {
	switch hw.kind {
	case "conv":
		if x.NDim() != 3 || x.Dim(0) != hw.gcIn*hw.groups {
			return nil, fmt.Errorf("arch: conv stage %s input shape %v, want %d channels", hw.name, x.Shape(), hw.gcIn*hw.groups)
		}
		geo := convGeom{h: x.Dim(1), w: x.Dim(2), kh: hw.kh, kw: hw.kw, stride: hw.stride, pad: hw.pad}
		oh, ow := geo.outSize()
		out := tensor.New(hw.outC, oh, ow)
		od := out.Data()
		npos := oh * ow
		gcOut := hw.outC / hw.groups
		rows := hw.gcIn * hw.kh * hw.kw
		// One window per position, reused across groups: annExec has
		// consumed a group's windows before the next group's gather.
		windows := make([]float64, npos*rows)
		inputs := make([][]float64, npos)
		for g := 0; g < hw.groups; g++ {
			for pos := range inputs {
				inputs[pos] = windows[pos*rows : (pos+1)*rows]
				geo.gather(inputs[pos], x.Data(), g*hw.gcIn, pos/ow, pos%ow)
			}
			sums, err := env.annExec(hw.core, inputs, hw.bias, res)
			if err != nil {
				return nil, err
			}
			for pos, row := range sums {
				for k := g * gcOut; k < (g+1)*gcOut; k++ {
					od[k*npos+pos] = row[k]
				}
			}
		}
		return out, nil
	case "dense":
		flat := x.Reshape(x.Size())
		sums, err := env.annExec(hw.core, [][]float64{flat.Data()}, hw.bias, res)
		if err != nil {
			return nil, err
		}
		return tensor.FromSlice(sums[0], len(sums[0])), nil
	case "pool":
		// ANN mode: plain average pooling in the NU datapath (no IF).
		return snn.AvgPool(x, hw.poolK, hw.poolStride), nil
	case "flatten":
		return x.Reshape(x.Size()), nil
	case "output":
		flat := x.Reshape(1, -1)
		out := tensor.MatMulTransB(flat, hw.outW)
		if hw.outB != nil {
			out.Row(0).AddInPlace(hw.outB)
		}
		return out.Reshape(hw.outW.Dim(0)), nil
	}
	return nil, fmt.Errorf("arch: unknown ANN stage kind %q", hw.kind)
}

// stepStageObs advances spiking stage i by one timestep, attributing
// the counter delta (and a trace event) to its bucket when the run
// carries a shard. The nil-shard path is a single branch on top of the
// unobserved stepStage.
func (s *Session) stepStageObs(env *execEnv, i, t int, hw *stageHW, sr *stageRun, x *tensor.Tensor, pl *spikeplane.Plane, res *RunResult) (*tensor.Tensor, *spikeplane.Plane, error) {
	if env.shard == nil {
		return env.stepStage(hw, sr, x, pl, res)
	}
	m := env.mark(res)
	out, opl, err := env.stepStage(hw, sr, x, pl, res)
	if err != nil {
		return nil, nil, err
	}
	idx := s.snnBase + i
	d := env.observe(m, res, env.shard.Stage(idx))
	if env.shard.TraceEnabled() {
		env.shard.AddTrace(obs.TraceEvent{Timestep: t, Stage: idx, Layer: hw.name, Spikes: d})
	}
	return out, opl, nil
}

// annStageObs executes continuous stage j, attributing the counter
// delta to its bucket when the run carries a shard.
func (s *Session) annStageObs(env *execEnv, j int, hw *annStageHW, x *tensor.Tensor, res *RunResult) (*tensor.Tensor, error) {
	if env.shard == nil {
		return env.annStage(hw, x, res)
	}
	m := env.mark(res)
	out, err := env.annStage(hw, x, res)
	if err != nil {
		return nil, err
	}
	env.observe(m, res, env.shard.Stage(s.annBase+j))
	return out, nil
}

// encodeObs encodes one timestep, attributing the input spikes entering
// the pipeline to the input bucket (stage 0 of spiking layouts). On the
// event-driven path it encodes into the run's recycled buffer, packs
// the spike plane that heads the per-timestep plane chain, and derives
// the spike count from the plane's popcount.
func (s *Session) encodeObs(env *execEnv, st *runState, enc snn.Encoder, img *tensor.Tensor, t int) (*tensor.Tensor, *spikeplane.Plane) {
	var x *tensor.Tensor
	var pl *spikeplane.Plane
	if env.event {
		pl = &st.encPlane
		switch ie := enc.(type) {
		case snn.PlaneEncoder:
			// The encoder builds the packed plane during its own walk —
			// no Pack re-scan of the dense vector.
			if st.encT == nil || !tensor.SameShape(st.encT, img) {
				st.encT = tensor.New(img.Shape()...)
			}
			ie.EncodeIntoPlane(st.encT, pl, img)
			x = st.encT
		case snn.IntoEncoder:
			if st.encT == nil || !tensor.SameShape(st.encT, img) {
				st.encT = tensor.New(img.Shape()...)
			}
			ie.EncodeInto(st.encT, img)
			x = st.encT
			pl.Pack(x.Data())
		default:
			x = enc.Encode(img)
			pl.Pack(x.Data())
		}
	} else {
		x = enc.Encode(img)
	}
	if sh := env.shard; sh != nil {
		var n int64
		if pl != nil {
			n = int64(pl.Count())
		} else {
			n = snn.CountSpikes(x)
		}
		sh.Stage(0).SpikesEmitted += n
		if sh.TraceEnabled() {
			sh.AddTrace(obs.TraceEvent{Timestep: t, Stage: 0, Layer: "input", Spikes: n})
		}
	}
	return x, pl
}

// execANN runs one continuous-activation pass.
func (s *Session) execANN(ctx context.Context, img *tensor.Tensor, env *execEnv) (*RunResult, error) {
	res := &RunResult{}
	x := img
	for j, hw := range s.annStages {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		x, err = s.annStageObs(env, j, hw, x, res)
		if err != nil {
			return nil, err
		}
	}
	res.Output = x.Clone()
	res.Prediction = x.ArgMax()
	return res, nil
}

// execSNN runs T encoded timesteps through the spiking pipeline.
// Cancellation is checked between timesteps so a hung experiment is
// killable mid-window.
func (s *Session) execSNN(ctx context.Context, img *tensor.Tensor, env *execEnv, enc snn.Encoder, st *runState) (*RunResult, error) {
	res := &RunResult{}
	for t := 0; t < s.cfg.Timesteps; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x, pl := s.encodeObs(env, st, enc, img, t)
		for i, hw := range s.snnStages {
			var err error
			x, pl, err = s.stepStageObs(env, i, t, hw, st.stages[i], x, pl, res)
			if err != nil {
				return nil, err
			}
		}
	}
	// The read-out stage integrates increments across timesteps; its
	// accumulator holds the final class potentials.
	out := runOutput(st, s.snnStages)
	res.Output = out
	res.Prediction = out.ArgMax()
	return res, nil
}

// execHybrid runs the spiking front, accumulates boundary spikes at the
// AU, and finishes with the compiled ANN tail.
func (s *Session) execHybrid(ctx context.Context, img *tensor.Tensor, env *execEnv, enc snn.Encoder, st *runState) (*RunResult, error) {
	res := &RunResult{}
	for t := 0; t < s.cfg.Timesteps; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x, pl := s.encodeObs(env, st, enc, img, t)
		for i, hw := range s.snnStages {
			var err error
			x, pl, err = s.stepStageObs(env, i, t, hw, st.stages[i], x, pl, res)
			if err != nil {
				return nil, err
			}
		}
		st.au.Accumulate(x)
	}
	// The recovered activations are in the source (unnormalized) scale of
	// the boundary; renormalize to [0,1] with λ so the normalized weights
	// of the remaining stages apply directly.
	x := st.au.Read()
	x.ScaleInPlace(1 / s.lambda)
	for j, hw := range s.annStages {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		x, err = s.annStageObs(env, j, hw, x, res)
		if err != nil {
			return nil, err
		}
	}
	res.Output = x.Clone()
	res.Prediction = x.ArgMax()
	return res, nil
}

// runOutput reads the final class potentials from the per-run read-out
// accumulator.
func runOutput(st *runState, stages []*stageHW) *tensor.Tensor {
	if n := len(stages); n > 0 {
		if acc := st.stages[n-1].outAcc; acc != nil {
			return acc.Clone()
		}
	}
	return tensor.New(1)
}

// runOne executes a single inference with the given reserved streams.
// When the session carries a recorder, the run fills a private counter
// shard and returns it alongside the result; the caller decides when
// (and whether) to merge it. A failed run's shard is discarded.
func (s *Session) runOne(ctx context.Context, input *tensor.Tensor, rs runStreams) (*RunResult, *obs.RunRecord, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if s.inputLen > 0 && input.Size() != s.inputLen {
		return nil, nil, &InputError{Len: input.Size(), Want: s.inputLen}
	}
	env := &execEnv{hops: s.engineHops}
	if s.rec != nil {
		env.shard = obs.NewRunRecord(s.obsLayout, s.traceOn)
	}
	if s.chip.noise != nil {
		env.noise = rs.noise
	}
	// Event-driven stepping requires a nil read-noise stream: noise draws
	// advance per live column, so skipping a read would shift every later
	// draw. Without noise, skips are value-exact.
	env.event = env.noise == nil && !s.cfg.noEvent
	var enc snn.Encoder
	if s.cfg.Mode != ModeANN {
		enc = s.cfg.encFactory(rs.enc)
	}
	st := s.arena.Get().(*runState)
	st.reset()
	defer s.arena.Put(st)
	var res *RunResult
	var err error
	switch s.cfg.Mode {
	case ModeANN:
		res, err = s.execANN(ctx, input, env)
	case ModeSNN:
		res, err = s.execSNN(ctx, input, env, enc, st)
	default:
		res, err = s.execHybrid(ctx, input, env, enc, st)
	}
	if err != nil {
		return nil, nil, err
	}
	res.Crossbar = env.cross
	return res, env.shard, nil
}

// mergeShards folds a batch's completed shards into the recorder in
// input order. Input-order merging is what keeps counter totals (which
// include float columns) bitwise identical between sequential and
// parallel execution of the same batch.
func (s *Session) mergeShards(shards []*obs.RunRecord) error {
	if s.rec == nil {
		return nil
	}
	for _, sh := range shards {
		if sh == nil {
			continue
		}
		if err := s.rec.MergeRun(sh); err != nil {
			return err
		}
	}
	return nil
}

// Run executes one inference. Each call reserves the next pair of
// per-run RNG streams, so a loop of Run calls is bitwise identical to
// one RunBatch over the same inputs.
func (s *Session) Run(ctx context.Context, input *tensor.Tensor) (*RunResult, error) {
	res, shard, err := s.runOne(ctx, input, s.reserveStreams(1)[0])
	if err != nil {
		return nil, err
	}
	if shard != nil {
		if err := s.mergeShards([]*obs.RunRecord{shard}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ReservedStreams is a pair of per-run RNG streams reserved outside the
// session — by a session pool that owns the stream parent and must be
// able to replay the exact same draws on a different replica. The pool
// reserves one pair per request in request order, keeps the originals,
// and hands each attempt fresh Clones; RunReserved then consumes the
// clone, so a retry of the same request reproduces the failed attempt
// bit for bit no matter which replica serves it.
type ReservedStreams struct {
	// Enc drives the input encoder; Noise drives crossbar read noise.
	Enc, Noise *rng.Rand
}

// RunReserved is Run with the per-run RNG streams supplied by the
// caller instead of drawn from the session parent. The session's own
// stream reservation state is untouched, so sessions used purely
// through RunReserved stay interchangeable: two replicas compiled with
// the same seed produce bitwise-identical results for the same input
// and streams. Safe for concurrent use under the same conditions as
// Run.
func (s *Session) RunReserved(ctx context.Context, input *tensor.Tensor, rs ReservedStreams) (*RunResult, error) {
	res, shard, err := s.runOne(ctx, input, runStreams{enc: rs.Enc, noise: rs.Noise})
	if err != nil {
		return nil, err
	}
	if shard != nil {
		if err := s.mergeShards([]*obs.RunRecord{shard}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// RunBatch executes a batch of inferences across the session's worker
// pool and returns one result per input, in input order. Per-run RNG
// streams are reserved in input order before any worker starts, so the
// outputs are bitwise identical to calling Run on each input
// sequentially, at any parallelism. Cancellation is honoured between
// batch items and between the timesteps of each spiking run; on error
// the first observed failure is returned and the batch is abandoned.
//
// When the session carries a recorder, each run fills a private counter
// shard; the shards are merged into the recorder in input order only
// after the whole batch succeeds, so recorded totals are bitwise
// identical to sequential execution at any parallelism. A failed or
// cancelled batch contributes nothing to the recorder — not even its
// completed runs.
func (s *Session) RunBatch(ctx context.Context, inputs []*tensor.Tensor) ([]*RunResult, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	streams := s.reserveStreams(len(inputs))
	results := make([]*RunResult, len(inputs))
	shards := make([]*obs.RunRecord, len(inputs))
	par := s.Parallelism(len(inputs))
	if par <= 1 {
		for i, in := range inputs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res, shard, err := s.runOne(ctx, in, streams[i])
			if err != nil {
				return nil, fmt.Errorf("arch: batch input %d: %w", i, err)
			}
			results[i] = res
			shards[i] = shard
		}
		if err := s.mergeShards(shards); err != nil {
			return nil, err
		}
		return results, nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(inputs))
	idx := make(chan int)
	done := make(chan struct{})
	for w := 0; w < par; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range idx {
				if err := cctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				res, shard, err := s.runOne(cctx, inputs[i], streams[i])
				if err != nil {
					errs[i] = err
					cancel()
					continue
				}
				results[i] = res
				shards[i] = shard
			}
		}()
	}
	for i := range inputs {
		idx <- i
	}
	close(idx)
	for w := 0; w < par; w++ {
		<-done
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Prefer the lowest-index real failure over cancellations it caused.
	var first error
	for i, err := range errs {
		if err == nil {
			continue
		}
		wrapped := fmt.Errorf("arch: batch input %d: %w", i, err)
		if !errors.Is(err, context.Canceled) {
			return nil, wrapped
		}
		if first == nil {
			first = wrapped
		}
	}
	if first != nil {
		return nil, first
	}
	if err := s.mergeShards(shards); err != nil {
		return nil, err
	}
	return results, nil
}
