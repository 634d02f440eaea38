package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/mapping"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/spikeplane"
	"repro/internal/tensor"
)

// inferResult is what the infer-batch phase measured.
type inferResult struct {
	nsPerImg     map[string]float64 // median RunBatch ns/img per kind
	calls        map[string][]float64
	allocsPerImg float64
	accuracy     float64
	njPerImg     float64
	cyclesPerImg float64
	attempted    int
	failed       int
	notes        []string
}

// sameRun reports whether two runs agree bit for bit.
func sameRun(a, b *arch.RunResult) bool {
	if a.Prediction != b.Prediction || a.Spikes != b.Spikes || a.Cycles != b.Cycles {
		return false
	}
	ad, bd := a.Output.Data(), b.Output.Data()
	if len(ad) != len(bd) {
		return false
	}
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}

// countedPass runs each kind's first batch on its timed session and the
// kind's count inputs sequentially on its observed twin (a fresh session
// seeded the same way). The first batch must match the sequential runs
// bit for bit — the batch-vs-sequential contract — and the twin's runs
// are the counted pass behind accuracy, energy and cycles.
func countedPass(ctx context.Context, fx *fixture, res *inferResult, pl *perLayer) error {
	var correct, labelled, imgs int
	var joules float64
	var cycles int64
	for _, k := range fx.kinds {
		res.attempted++
		first, err := k.timed.RunBatch(ctx, k.batch)
		if err != nil {
			res.failed++
			res.notes = append(res.notes, fmt.Sprintf("%s: first batch: %v", k.name, err))
			continue
		}
		for i, img := range k.count {
			r, err := k.twin.Run(ctx, img)
			if err != nil {
				return fmt.Errorf("%s: sequential run %d: %w", k.name, i, err)
			}
			if i < len(first) && !sameRun(first[i], r) {
				res.failed++
				res.notes = append(res.notes, fmt.Sprintf("%s: batch image %d differs from the sequential run", k.name, i))
			}
			if k.labels != nil {
				labelled++
				if r.Prediction == k.labels[i] {
					correct++
				}
			}
			cycles += r.Cycles
			imgs++
		}
		snap := k.rec.Snapshot()
		joules += obs.DefaultAttribution(snap).TotalJ
		pl.counters(k, snap, len(k.count))
	}
	if labelled == 0 || imgs == 0 {
		return fmt.Errorf("counted pass ran no images")
	}
	res.accuracy = float64(correct) / float64(labelled)
	res.njPerImg = joules * 1e9 / float64(imgs)
	res.cyclesPerImg = float64(cycles) / float64(imgs)
	return nil
}

// inferSession is the infer-batch phase: a closed loop with one client
// that calls RunBatch round-robin over the kinds. It runs in chunks
// spread over the benchmark run, so the medians sample the host's speed
// over the whole run rather than over one stretch of it. In a traced run
// every other block of rounds is left untraced, and a traced call is timed
// with its span's begin and end inside the window, so the spans' own cost
// shows as the traced/untraced ratio.
type inferSession struct {
	ctx      context.Context
	fx       *fixture
	sz       sizes
	tr       *tracer
	res      *inferResult
	untraced map[string][]float64
	images   int
	mallocs  uint64
	round    int
}

// newInferSession runs the counted pass and readies the timed loop.
func newInferSession(ctx context.Context, fx *fixture, sz sizes, tr *tracer, pl *perLayer) (*inferSession, error) {
	s := &inferSession{ctx: ctx, fx: fx, sz: sz, tr: tr, untraced: map[string][]float64{},
		res: &inferResult{nsPerImg: map[string]float64{}, calls: map[string][]float64{}}}
	if err := countedPass(ctx, fx, s.res, pl); err != nil {
		return nil, err
	}
	return s, nil
}

// chunk runs timed rounds until budget has passed (at least one round).
func (s *inferSession) chunk(budget time.Duration) {
	res, tr := s.res, s.tr
	root := tr.begin("infer-batch", -1)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	deadline := time.Now().Add(budget)
	for first := true; first || time.Now().Before(deadline); first = false {
		round := s.round
		s.round++
		// Conv runs every convEvery rounds, so alternate in blocks of that
		// many rounds for conv to land in both halves.
		traced := tr != nil && (round/s.sz.convEvery)%2 == 0
		for _, k := range s.fx.kinds {
			if k.name == kindConv && round%s.sz.convEvery != 0 {
				continue
			}
			t0 := time.Now()
			id := -1
			if traced {
				id = tr.begin("arch.RunBatch."+k.name, root)
			}
			out, err := k.timed.RunBatch(s.ctx, k.batch)
			if traced {
				tr.end(id)
			}
			ns := float64(time.Since(t0).Nanoseconds()) / float64(len(k.batch))
			res.attempted++
			if err != nil || len(out) != len(k.batch) {
				res.failed++
				res.notes = append(res.notes, fmt.Sprintf("%s: RunBatch: %v", k.name, err))
				continue
			}
			s.images += len(k.batch)
			if tr != nil && !traced {
				s.untraced[k.name] = append(s.untraced[k.name], ns)
			} else {
				res.calls[k.name] = append(res.calls[k.name], ns)
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	s.mallocs += ms1.Mallocs - ms0.Mallocs
	tr.end(root)
}

// finish computes the phase's metrics, and in a traced run its layers.
func (s *inferSession) finish(pl *perLayer) (*inferResult, error) {
	res := s.res
	for _, name := range kindNames {
		res.nsPerImg[name] = median(res.calls[name])
	}
	if s.images > 0 {
		res.allocsPerImg = float64(s.mallocs) / float64(s.images)
	}
	if s.tr != nil {
		var tSum, uSum float64
		for _, name := range kindNames {
			tSum += median(res.calls[name])
			uSum += median(s.untraced[name])
		}
		pl.set("trace.overhead_frac", tSum/uSum-1, "fraction")
		if err := inferLayers(s.ctx, s.fx, s.sz, s.tr, pl); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// inferLayers fills the traced per-layer split of infer-batch: RunBatch
// spans, per-kind allocations, and micro-timings of the encoder, the
// packed MAC read and the neuron integrate, which with the counted calls
// give outside estimates of each layer's share of a RunBatch.
func inferLayers(ctx context.Context, fx *fixture, sz sizes, tr *tracer, pl *perLayer) error {
	par := float64(runtime.GOMAXPROCS(0))
	for _, k := range fx.kinds {
		spanMS := median(tr.durations("arch.RunBatch."+k.name)) / 1e6
		pl.set("arch.runbatch_ms."+k.name, spanMS, "ms")

		// Allocations per image, from a few extra batches with the heap
		// counters read around each (stop-the-world, so not in the loop).
		var allocs []float64
		for i := 0; i < 3; i++ {
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			if _, err := k.timed.RunBatch(ctx, k.batch); err != nil {
				return fmt.Errorf("%s: alloc probe: %w", k.name, err)
			}
			runtime.ReadMemStats(&b)
			allocs = append(allocs, float64(b.Mallocs-a.Mallocs)/float64(len(k.batch)))
		}
		pl.set("arch.allocs_per_img."+k.name, median(allocs), "allocs/img")

		if !k.spiking {
			continue
		}
		// Worker time per image: the RunBatch span spread over the workers.
		workerNS := spanMS * 1e6 * par / float64(len(k.batch))
		c := pl.kindCounters[k.name]

		encNS := encodeNSPerImg(k, sz)
		pl.set("snn.encode_ns_per_img."+k.name, encNS, "ns/img")
		pl.set("arch.est_share.encode."+k.name, encNS/workerNS, "fraction")

		macNS := macReadPackedNS(c.activeRowFrac, sz.microIters, uint64(len(k.name)))
		pl.set("crossbar.mac_read_packed_ns."+k.name, macNS, "ns")
		pl.set("arch.est_share.mac."+k.name, macNS*c.macReadsPerImg/workerNS, "fraction")

		intNS := integrateNS(sz.microIters)
		pl.set("arch.est_share.integrate."+k.name, intNS*c.integratesPerImg/workerNS, "fraction")
	}
	return nil
}

// encodeNSPerImg times T EncodeIntoPlane calls per image over the kind's
// batch with the encoder the session uses, and returns the median
// ns per image over repetitions.
func encodeNSPerImg(k *kind, sz sizes) float64 {
	gain := k.model.converted.Cfg.Gain
	if k.name == kindSNNSparse {
		gain = 1.0
	}
	enc := snn.NewPoissonEncoder(gain, rng.New(7))
	dst := tensor.New(k.batch[0].Shape()...)
	var plane spikeplane.Plane
	reps := max(1, sz.microIters/200)
	var per []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for _, img := range k.batch {
			for t := 0; t < sz.T; t++ {
				enc.EncodeIntoPlane(dst, &plane, img)
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(len(k.batch)))
	}
	return median(per)
}

// macReadPackedNS times MACReadPacked on a baked 128×128 array with
// random spike masks of the given row density; median ns per call.
func macReadPackedNS(density float64, iters int, seed uint64) float64 {
	const rows, cols = mapping.M, mapping.M
	r := rng.New(seed)
	xb := crossbar.New(rows, cols, device.DefaultParams(), crossbar.Config{}, nil)
	w := tensor.New(rows, cols)
	for i, d := 0, w.Data(); i < len(d); i++ {
		d[i] = 2*r.Float64() - 1
	}
	if err := xb.Program(w, 1); err != nil {
		panic(err) // fixed valid shape: a failure is a bug
	}
	xb.BakeKernel()
	const nMasks = 64
	masks := make([][]uint64, nMasks)
	inputs := make([][]float64, nMasks)
	for m := range masks {
		masks[m] = make([]uint64, spikeplane.Words(rows))
		inputs[m] = make([]float64, rows)
		for i := 0; i < rows; i++ {
			if r.Float64() < density {
				masks[m][i/64] |= 1 << (i % 64)
				inputs[m][i] = 1
			}
		}
	}
	dst := make([]float64, cols)
	var stats crossbar.Stats
	var per []float64
	block := max(1, iters/8)
	for b := 0; b < 8; b++ {
		t0 := time.Now()
		for i := 0; i < block; i++ {
			m := i % nMasks
			if err := xb.MACReadPacked(dst, inputs[m], masks[m], nil, &stats); err != nil {
				panic(err) // freshly baked kernel: a stale one is a bug
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(block))
	}
	return median(per)
}

// integrateNS times SpikingNeuron.Integrate over a spread of drive
// currents around the depinning threshold; median ns per call.
func integrateNS(iters int) float64 {
	p := device.DefaultParams()
	r := rng.New(3)
	const nNeurons = 256
	bank := make([]device.SpikingNeuron, nNeurons)
	cur := make([]float64, nNeurons)
	for i := range bank {
		bank[i].P = p
		c := p.DepinningCurrentUA * (0.5 + 2*r.Float64())
		if i%5 == 0 {
			c = -c
		}
		cur[i] = c
	}
	var per []float64
	block := max(nNeurons, iters)
	for b := 0; b < 8; b++ {
		t0 := time.Now()
		for i := 0; i < block; i++ {
			j := i % nNeurons
			if bank[j].Integrate(cur[j], p.PulseNS) {
				bank[j].Reset()
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(block))
	}
	return median(per)
}

// stageOutputs maps each weighted layer of an ANN to its output neuron
// count, by shape inference from the input shape.
func stageOutputs(net *nn.Network, in []int) map[string]int {
	out := map[string]int{}
	shape := append([]int(nil), in...)
	for _, l := range net.Layers() {
		sh, ok := l.(nn.Shaper)
		if !ok {
			continue
		}
		shape = sh.OutShape(shape)
		switch l.(type) {
		case *nn.Conv2D, *nn.Linear:
			n := 1
			for _, d := range shape {
				n *= d
			}
			out[l.Name()] = n
		}
	}
	return out
}
