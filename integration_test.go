package repro

// Full-stack integration test: one model travels the entire flow the
// repository implements — train → calibrate → quantize → convert → dense
// SNN eval → hybrid split → chip-level execution →
// shape derivation → mapping → placement → compiled schedule → routed NoC
// traffic → analytic energy → trace replay. Each stage's output feeds the
// next, so this test fails if any cross-package contract drifts.

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/hybrid"
	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/placement"
	"repro/internal/replay"
	"repro/internal/rng"
	"repro/internal/snn"
)

func TestFullStackIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	// 1. Train + quantize + convert through the facade.
	sim := core.New()
	trainDS, testDS := dataset.TrainTest(dataset.MNISTLike, 400, 120, 2020)
	net := models.NewMLP3(1, 16, 10, rng.New(11))
	cfg := core.DefaultPipelineConfig()
	cfg.Train.Epochs = 6
	pipe, err := sim.Build(net, trainDS, testDS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	annAcc := pipe.EvaluateANN()
	if annAcc < 0.6 {
		t.Fatalf("ANN accuracy %v", annAcc)
	}

	// 2. Dense SNN evaluation.
	const T = 100
	snnRes := pipe.EvaluateSNN(T, 60)
	if snnRes.Accuracy < annAcc-0.25 {
		t.Fatalf("SNN accuracy %v vs ANN %v", snnRes.Accuracy, annAcc)
	}

	// 3. Hybrid split classifies.
	hyb, err := hybrid.Split(pipe.Converted, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc := hyb.Evaluate(testDS, T, 40, 7); acc < 0.5 {
		t.Fatalf("hybrid accuracy %v", acc)
	}

	// 4. Chip-level hardware execution.
	img, label := testDS.Sample(0)
	hwRes, hwLabel, err := pipe.RunOnChip(0, 60)
	if err != nil {
		t.Fatal(err)
	}
	if hwRes.Spikes == 0 {
		t.Fatal("no hardware spikes")
	}
	if hwLabel != label {
		t.Fatalf("fixture mismatch: %d vs %d", hwLabel, label)
	}

	// 5. Shape derivation → mapping → placement → compile.
	w, err := models.FromNetwork("mlp3-scaled", pipe.ANN, 1, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	np := mapping.MapWorkload(w)
	assign, err := placement.Place(np, 14, 14)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := compiler.Compile(assign)
	if err != nil {
		t.Fatal(err)
	}
	if sched.TotalSynapses == 0 || len(sched.Programs) == 0 {
		t.Fatalf("empty schedule: %+v", sched)
	}

	// 6. Routed NoC traffic.
	traffic := assign.SimulateTraffic(placement.SNNTraffic(T, snnRes.MeanInputRate))
	if traffic.Stats.Packets == 0 || traffic.EnergyJ() <= 0 {
		t.Fatalf("no traffic: %+v", traffic)
	}

	// 7. Analytic energy for the derived workload, both modes.
	em := energy.NewModel()
	ann := em.ANNNetwork(np)
	snnE := em.SNNNetwork(np, T, energy.DefaultActivity(w, snnRes.MeanInputRate))
	if snnE.EnergyJ <= ann.EnergyJ {
		t.Fatalf("SNN energy %v not above ANN %v at T=%d", snnE.EnergyJ, ann.EnergyJ, T)
	}
	if snnE.AvgPowerW >= ann.AvgPowerW {
		t.Fatalf("SNN power %v not below ANN %v", snnE.AvgPowerW, ann.AvgPowerW)
	}

	// 8. Trace replay through the same workload shapes.
	_, tr := pipe.Converted.SNN.RunTraced(img, T, snn.NewPoissonEncoder(1.0, rng.New(9)))
	em2 := energy.NewModel()
	em2.SNNParallelism = 1
	rep, err := replay.Replay(em2, w, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EnergyJ <= 0 || len(rep.StepPowerW) != T {
		t.Fatalf("degenerate replay: %+v", rep)
	}

	// 9. The conversion metadata stays internally consistent.
	var weighted int
	for _, st := range pipe.Converted.Stages {
		if st.Weighted {
			weighted++
		}
	}
	if weighted != len(np.Placements) {
		t.Fatalf("stage/placement mismatch: %d vs %d", weighted, len(np.Placements))
	}
	_ = convert.DefaultConfig()
}
