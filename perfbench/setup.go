package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/reliability"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// sizes fixes how much work each phase does. The full sizes are the
// benchmark; smoke sizes only exercise every path and the output schema.
type sizes struct {
	// MLP-3 and LeNet-5 training sets built during set-up.
	mlpTrain, mlpTest, mlpEpochs       int
	lenetTrain, lenetTest, lenetEpochs int
	// setupReps is how often set-up is repeated; setup_s is the median.
	setupReps int
	// T is the spiking window of the infer-batch kinds.
	T int
	// batch / convBatch are the RunBatch sizes; convEvery gives conv one
	// turn per that many rounds, so LeNet-5 (≈40× the cost of an MLP-3
	// image) does not swamp the loop.
	batch, convBatch, convEvery int
	// count / convCount are the images of the counted (observed) pass.
	count, convCount int
	// serveRequests is the request count at each fixed rate (1050: at
	// least ten beyond its p99); ladderRequests the count per capacity
	// probe; ladderProbes the number of probes.
	serveRequests, ladderRequests, ladderProbes int
	// train-conv: samples, test samples, epochs and batch per train.Run.
	trainN, trainTest, trainEpochs, trainBatch int
	// inferShare is the share of --seconds given to each of the first two
	// infer-batch chunks; the last one runs to the end of the budget.
	inferShare float64
	// microIters is the call count of each traced micro-benchmark.
	microIters int
}

func fullSizes() sizes {
	return sizes{
		mlpTrain: 400, mlpTest: 96, mlpEpochs: 8,
		lenetTrain: 240, lenetTest: 32, lenetEpochs: 4,
		setupReps: 3,
		T:         40,
		batch:     32, convBatch: 4, convEvery: 4,
		count: 192, convCount: 32,
		serveRequests: 1050, ladderRequests: 1000, ladderProbes: 6,
		trainN: 192, trainTest: 64, trainEpochs: 2, trainBatch: 16,
		inferShare: 0.10,
		microIters: 4000,
	}
}

func smokeSizes() sizes {
	return sizes{
		mlpTrain: 64, mlpTest: 16, mlpEpochs: 1,
		lenetTrain: 32, lenetTest: 8, lenetEpochs: 1,
		setupReps: 1,
		T:         4,
		batch:     4, convBatch: 2, convEvery: 2,
		count: 8, convCount: 2,
		serveRequests: 40, ladderRequests: 30, ladderProbes: 2,
		trainN: 96, trainTest: 32, trainEpochs: 2, trainBatch: 16,
		inferShare: 0.10,
		microIters: 50,
	}
}

// modelSeed fixes the models' training data and initialisation. The
// models are part of the system under test, so they are the same in
// every run; --seed chooses only the inputs they are driven with.
const modelSeed = 77

// trained is one model taken through train → quantize → convert.
type trained struct {
	converted *convert.Converted
	testDS    *dataset.Dataset
}

// buildModel runs the repository's model flow (the same steps as
// core.Simulator.Build) with a span around each layer call.
func buildModel(tr *tracer, parent int, builder models.Builder, spec dataset.Spec,
	nTrain, nTest, epochs int, seed uint64) (*trained, error) {
	trainDS, testDS := dataset.TrainTest(spec, nTrain, nTest, seed)
	net := builder(spec.Channels, spec.Size, spec.Classes, rng.New(seed+1))
	tcfg := train.DefaultConfig()
	tcfg.Epochs = epochs

	id := tr.begin("train.Run", parent)
	train.Run(net, trainDS, testDS, tcfg)
	tr.end(id)

	id = tr.begin("quant.Calibrate", parent)
	ranges := quant.Calibrate(net, trainDS, quant.DefaultCalibration())
	tr.end(id)
	id = tr.begin("quant.Apply", parent)
	quant.Apply(net, ranges, quant.DefaultConfig())
	tr.end(id)

	id = tr.begin("convert.Convert", parent)
	conv, err := convert.Convert(net, trainDS, convert.DefaultConfig())
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("convert %s: %w", net.Name(), err)
	}
	return &trained{converted: conv, testDS: testDS}, nil
}

// kind is one infer-batch session kind: a timed session, a fresh twin
// compiled the same way with an observer attached (it replays the first
// batch sequentially and is the counted pass), and its inputs.
type kind struct {
	name  string
	model *trained
	// spiking reports whether the kind runs an encoder and IF stages.
	spiking bool
	timed   *arch.Session
	twin    *arch.Session
	rec     *obs.Recorder
	batch   []*tensor.Tensor
	// count are the counted-pass inputs (batch is their prefix);
	// labels their classes, or nil when the inputs carry none.
	count  []*tensor.Tensor
	labels []int
}

// fixture is everything set-up produces.
type fixture struct {
	mlp, lenet *trained
	kinds      []*kind
	pool       *fleet.Pool
	fleetRec   *obs.FleetRecorder
	factory    fleet.Factory
	poolSeed   uint64
	// images are the MNIST-like images generated from --seed, set to the
	// workload's input activity, that every chip kind and every served
	// request draws from; labels are their classes. activity is their
	// mean input activity.
	images   []*tensor.Tensor
	labels   []int
	activity float64
}

// Kind names, in round-robin order.
const (
	kindANN       = "ann"
	kindSNN       = "snn"
	kindHybrid    = "hybrid"
	kindSNNSparse = "snn_sparse"
	kindConv      = "conv"
)

var kindNames = []string{kindANN, kindSNN, kindHybrid, kindSNNSparse, kindConv}

// sparseActivity is the constant pixel intensity of the snn_sparse
// inputs: with a gain-1 Poisson encoder, 1% of inputs fire per step.
const sparseActivity = 0.01

// serveTimesteps / serveBatch are the serving configuration, and
// serveChipSeed seeds every replica chip so replicas are identical.
const (
	serveTimesteps = 20
	serveBatch     = 8
	serveChipSeed  = 91
)

// setupOnce builds the models, compiles every session and builds the
// serving pool. Its wall time is one setup_s sample.
func setupOnce(ctx context.Context, sz sizes, wl workload, seed uint64, nproc int, tr *tracer) (*fixture, error) {
	root := tr.begin("setup", -1)
	defer tr.end(root)

	fx := &fixture{poolSeed: 2020}
	var err error
	fx.mlp, err = buildModel(tr, root, models.NewMLP3, dataset.MNISTLike, sz.mlpTrain, sz.mlpTest, sz.mlpEpochs, modelSeed)
	if err != nil {
		return nil, err
	}
	fx.lenet, err = buildModel(tr, root, models.NewLeNet5, dataset.MNISTLike, sz.lenetTrain, sz.lenetTest, sz.lenetEpochs, modelSeed+1)
	if err != nil {
		return nil, err
	}

	fx.images, fx.labels, fx.activity, err = inputImages(dataset.Generate(dataset.MNISTLike, max(sz.count, sz.convCount), seed),
		wl.activity, fx.mlp.converted.Cfg.Gain)
	if err != nil {
		return nil, err
	}

	sim := core.New()
	sparseEnc := arch.WithEncoder(func(r *rng.Rand) snn.Encoder { return snn.NewPoissonEncoder(1.0, r) })
	specs := []struct {
		name  string
		model *trained
		opts  []arch.Option
		n     int
	}{
		{kindANN, fx.mlp, []arch.Option{arch.WithMode(arch.ModeANN)}, sz.batch},
		{kindSNN, fx.mlp, []arch.Option{arch.WithMode(arch.ModeSNN)}, sz.batch},
		{kindHybrid, fx.mlp, []arch.Option{arch.WithMode(arch.ModeHybrid), arch.WithHybridSplit(1)}, sz.batch},
		{kindSNNSparse, fx.mlp, []arch.Option{arch.WithMode(arch.ModeSNN), sparseEnc}, sz.batch},
		{kindConv, fx.lenet, []arch.Option{arch.WithMode(arch.ModeSNN)}, sz.convBatch},
	}
	for i, s := range specs {
		k := &kind{name: s.name, model: s.model, spiking: s.name != kindANN, rec: obs.NewRecorder()}
		img0, _ := s.model.testDS.Sample(0)
		opts := append([]arch.Option{
			arch.WithTimesteps(sz.T),
			arch.WithParallelism(nproc),
			arch.WithSeed(modelSeed + 100 + uint64(i)),
			arch.WithInputShape(img0.Shape()...),
		}, s.opts...)
		id := tr.begin("arch.Compile", root)
		k.timed, err = sim.NewChip(nil).Compile(s.model.converted, opts...)
		if err == nil {
			k.twin, err = sim.NewChip(nil).Compile(s.model.converted, append(opts, arch.WithObserver(k.rec))...)
		}
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", s.name, err)
		}
		nCount := sz.count
		if s.name == kindConv {
			nCount = sz.convCount
		}
		k.count, k.labels = kindInputs(s.name, fx, nCount)
		k.batch = k.count[:s.n]
		fx.kinds = append(fx.kinds, k)
	}

	fx.factory = serveFactory(fx.mlp.converted, fx.poolSeed)
	fx.fleetRec = &obs.FleetRecorder{}
	id := tr.begin("fleet.NewPool", root)
	fx.pool, err = fleet.NewPool(ctx, fleet.Config{
		Replicas: nproc,
		Factory:  fx.factory,
		Seed:     fx.poolSeed,
		Rec:      fx.fleetRec,
	})
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("pool: %w", err)
	}
	return fx, nil
}

// kindInputs returns n inputs for a kind: the run's images, or for
// snn_sparse a constant 1%-intensity image, which carries no label.
func kindInputs(name string, fx *fixture, n int) ([]*tensor.Tensor, []int) {
	imgs := make([]*tensor.Tensor, n)
	if name == kindSNNSparse {
		for i := range imgs {
			imgs[i] = tensor.New(fx.images[0].Shape()...)
			imgs[i].Fill(sparseActivity)
		}
		return imgs, nil
	}
	labels := make([]int, n)
	for i := range imgs {
		imgs[i], labels[i] = fx.images[i%len(fx.images)], fx.labels[i%len(fx.labels)]
	}
	return imgs, labels
}

// activityOf returns an image's input activity under a Poisson encoder
// of the given gain: the mean over its pixels of the per-timestep firing
// probability min(1, gain·pixel), zero for pixels at or below zero.
func activityOf(img *tensor.Tensor, gain float64) float64 {
	var sum float64
	for _, v := range img.Data() {
		sum += min(1, max(0, gain*v))
	}
	return sum / float64(len(img.Data()))
}

// inputImages returns the dataset's images and labels and their mean
// input activity. When activity is non-zero every image is scaled so its
// own input activity is exactly that; scaling is exact only while no
// pixel's firing probability reaches 1, so an image that would saturate
// is an error.
func inputImages(data *dataset.Dataset, activity, gain float64) ([]*tensor.Tensor, []int, float64, error) {
	imgs := make([]*tensor.Tensor, data.Len())
	labels := make([]int, data.Len())
	var total float64
	for i := range imgs {
		img, label := data.Sample(i)
		if activity > 0 {
			f := activity / activityOf(img, gain)
			img = img.Clone()
			d := img.Data()
			for j := range d {
				d[j] *= f
				if gain*d[j] > 1 {
					return nil, nil, 0, fmt.Errorf("image %d saturates at input activity %v", i, activity)
				}
			}
		}
		imgs[i], labels[i] = img, label
		total += activityOf(img, gain)
	}
	return imgs, labels, total / float64(len(imgs)), nil
}

// serveFactory compiles one serving replica the way cmd/nebula-serve
// does: read noise on, spare-remap protection, SNN mode at T=20.
func serveFactory(conv *convert.Converted, seed uint64) fleet.Factory {
	return func(ctx context.Context) (*arch.Session, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chip := arch.NewChip(device.DefaultParams(), crossbar.Config{ReadNoiseSigma: 0.05}, rng.New(serveChipSeed))
		chip.Rel = &reliability.Config{
			Protection: reliability.ProtectSpareRemap,
			Policy:     reliability.DefaultPolicy(),
		}
		return chip.Compile(conv,
			arch.WithMode(arch.ModeSNN),
			arch.WithTimesteps(serveTimesteps),
			arch.WithSeed(seed))
	}
}

// setup runs set-up sz.setupReps times and keeps the last fixture.
// Returns the per-repetition wall times in seconds.
func setup(ctx context.Context, sz sizes, wl workload, seed uint64, nproc int, tr *tracer) (*fixture, []float64, error) {
	var fx *fixture
	var secs []float64
	for i := 0; i < sz.setupReps; i++ {
		t0 := time.Now()
		f, err := setupOnce(ctx, sz, wl, seed, nproc, tr)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		fx = f
	}
	return fx, secs, nil
}
