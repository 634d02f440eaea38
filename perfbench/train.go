package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/train"
)

// trainModels are the train-conv networks: VGG-13 exercises dense
// convolutions, MobileNet-v1 depthwise (grouped) ones, so a change to
// the conv kernels shows on both or on one.
var trainModels = []struct {
	name    string
	builder models.Builder
}{
	{"vgg13", models.NewVGG13},
	{"mobilenet-v1", models.NewMobileNetV1},
}

// trainResult is what the train-conv phase measured.
type trainResult struct {
	samplesPerS float64
	accuracy    map[string]float64 // last test accuracy per model
	attempted   int
	failed      int
	notes       []string
}

// trainConfig is the train.Run configuration of train-conv.
func trainConfig(sz sizes) train.Config {
	cfg := train.DefaultConfig()
	cfg.Epochs = sz.trainEpochs
	cfg.BatchSize = sz.trainBatch
	// The rate the repository's experiments use for the conv stacks.
	cfg.LR = 0.03
	cfg.LRDecayEvery = 0
	return cfg
}

// trainSession is the train-conv phase: train.Run on each model in turn,
// from the same initialisation each call. Like infer-batch it runs in
// rounds spread over the benchmark run. Loss must stay finite and test
// accuracy above chance.
type trainSession struct {
	sz              sizes
	tr              *tracer
	trainDS, testDS *dataset.Dataset
	secs            [][]float64
	res             *trainResult
}

func newTrainSession(sz sizes, seed uint64, tr *tracer) *trainSession {
	trainDS, testDS := dataset.TrainTest(dataset.CIFAR10Like, sz.trainN, sz.trainTest, seed+30)
	return &trainSession{sz: sz, tr: tr, trainDS: trainDS, testDS: testDS,
		secs: make([][]float64, len(trainModels)), res: &trainResult{accuracy: map[string]float64{}}}
}

// round trains every model once.
func (s *trainSession) round() error {
	cfg := trainConfig(s.sz)
	chance := 1 / float64(dataset.CIFAR10Like.Classes)
	res := s.res
	root := s.tr.begin("train-conv", -1)
	defer s.tr.end(root)
	for m, tm := range trainModels {
		net := tm.builder(3, dataset.CIFAR10Like.Size, dataset.CIFAR10Like.Classes, rng.New(modelSeed+40+uint64(m)))
		t0 := time.Now()
		id := s.tr.begin("train.Run."+tm.name, root)
		r := train.Run(net, s.trainDS, s.testDS, cfg)
		s.tr.end(id)
		s.secs[m] = append(s.secs[m], time.Since(t0).Seconds())
		res.attempted++
		res.accuracy[tm.name] = r.TestAccuracy
		if math.IsNaN(r.FinalLoss) || math.IsInf(r.FinalLoss, 0) || r.TestAccuracy <= chance {
			res.failed++
			res.notes = append(res.notes, fmt.Sprintf("%s: loss %v, test accuracy %.3f (chance %.2f)",
				tm.name, r.FinalLoss, r.TestAccuracy, chance))
		}
	}
	return nil
}

// finish computes training throughput: one call per model at each
// model's median time.
func (s *trainSession) finish(pl *perLayer) *trainResult {
	var total float64
	for m := range trainModels {
		total += median(s.secs[m])
	}
	samples := float64(len(trainModels) * s.sz.trainEpochs * (s.sz.trainN / s.sz.trainBatch) * s.sz.trainBatch)
	s.res.samplesPerS = samples / total
	if s.tr != nil {
		trainLayers(s.sz, s.trainDS, pl)
	}
	return s.res
}

// layerTimes accumulates the traced layer-by-layer training step.
type layerTimes struct {
	fwd, bwd        map[string]time.Duration
	loss, sgd, zero time.Duration
	convFlops       float64
	steps           int
}

// category groups a layer for the per-layer split.
func category(l nn.Layer) string {
	switch v := l.(type) {
	case *nn.Conv2D:
		if v.Groups > 1 {
			return "conv2d_grouped"
		}
		return "conv2d"
	case *nn.Linear:
		return "linear"
	}
	return "other"
}

// trainLayers drives one epoch of each model step by step through the
// public nn calls train.Run makes — forward per layer, loss, zero-grad,
// backward per layer, SGD step — timing each call from outside.
func trainLayers(sz sizes, data *dataset.Dataset, pl *perLayer) {
	lt := layerTimes{fwd: map[string]time.Duration{}, bwd: map[string]time.Duration{}}
	cfg := trainConfig(sz)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for m, tm := range trainModels {
		net := tm.builder(3, dataset.CIFAR10Like.Size, dataset.CIFAR10Like.Classes, rng.New(modelSeed+40+uint64(m)))
		opt := train.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
		layers := net.Layers()
		for start := 0; start+cfg.BatchSize <= data.Len(); start += cfg.BatchSize {
			x, y := data.Batch(start, cfg.BatchSize)
			act := x
			for _, l := range layers {
				t0 := time.Now()
				act = l.Forward(act, true)
				d := time.Since(t0)
				cat := category(l)
				lt.fwd[cat] += d
				if c, ok := l.(*nn.Conv2D); ok && cat == "conv2d" {
					sh := act.Shape() // (batch, outC, outH, outW)
					lt.convFlops += 2 * float64(sh[0]*sh[1]*sh[2]*sh[3]) * float64(c.InC/c.Groups*c.KH*c.KW)
				}
			}
			t0 := time.Now()
			_, grad := nn.SoftmaxCrossEntropy(act, y)
			lt.loss += time.Since(t0)

			t0 = time.Now()
			net.ZeroGrad()
			lt.zero += time.Since(t0)

			for i := len(layers) - 1; i >= 0; i-- {
				t0 := time.Now()
				grad = layers[i].Backward(grad)
				lt.bwd[category(layers[i])] += time.Since(t0)
			}
			t0 = time.Now()
			opt.Step(net.Params())
			lt.sgd += time.Since(t0)
			lt.steps++
		}
	}
	runtime.ReadMemStats(&ms1)

	steps := float64(max(1, lt.steps))
	perStep := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / steps }
	for _, cat := range []string{"conv2d", "conv2d_grouped", "linear"} {
		pl.set("nn."+cat+".fwd_ms", perStep(lt.fwd[cat]), "ms/step")
		pl.set("nn."+cat+".bwd_ms", perStep(lt.bwd[cat]), "ms/step")
	}
	pl.set("nn.other_ms", perStep(lt.fwd["other"]+lt.bwd["other"]+lt.zero), "ms/step")
	pl.set("nn.loss_ms", perStep(lt.loss), "ms/step")
	pl.set("train.sgd_ms", perStep(lt.sgd), "ms/step")
	pl.set("nn.conv2d.gflops", lt.convFlops/float64(lt.fwd["conv2d"].Nanoseconds()), "GFLOP/s")
	pl.set("train.allocs_per_step", float64(ms1.Mallocs-ms0.Mallocs)/steps, "allocs/step")
	pl.set("train.alloc_mb_per_step", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/steps, "MB/step")
}
