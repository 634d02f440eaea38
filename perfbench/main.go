// Command perfbench is the repository's benchmark. One run builds the
// models and the serving pool from a seed, then measures three phases
// against the simulator's public layers:
//
//   - infer-batch: a closed loop with one client calling Session.RunBatch
//     round-robin over five session kinds (ann, snn, hybrid, snn_sparse,
//     conv);
//   - serve-open: an open loop through serve.Server's HTTP handler over a
//     fleet.Pool, at two fixed rates and up a capacity ladder;
//   - train-conv: train.Run on VGG-13 and MobileNet-v1.
//
// Every output is checked (batch vs sequential, served vs golden replay,
// finite loss and above-chance accuracy), and the last line of standard
// output is one JSON object with the end-to-end metrics (--trace 0) or
// the per-layer split from a traced run (--trace 1). Build and run it
// from the repository root with
//
//	bash perfbench/run.sh --workload natural --seed 1 --seconds 50 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one set of chip inputs: every phase runs under each, and
// the workload sets the input activity of the dataset images fed to the
// chip (infer-batch kinds and served requests). Training data is never
// changed.
type workload struct {
	name string
	// activity, when non-zero, is the input activity every dataset image
	// is scaled to: the mean per-timestep firing probability of its
	// pixels under the session's Poisson encoder, as the -exp sparse
	// sweep of cmd/nebula-bench defines it. Zero keeps the images as
	// generated.
	activity float64
}

var workloads = []workload{
	// Dataset images as the models were trained on them (input activity
	// about 35%).
	{name: "natural"},
	// The same images scaled to 10% input activity, one of the activity
	// levels of the -exp sparse sweep.
	{name: "act10", activity: 0.10},
}

// result is the final line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// record is the machine-stamped run record written under the output
// directory.
type record struct {
	Machine  machine `json:"machine"`
	Workload string  `json:"workload"`
	// InputActivity is the mean per-step firing probability of the
	// dataset images fed to the chip.
	InputActivity float64 `json:"input_activity"`
	Seed          uint64  `json:"seed"`
	Seconds       int     `json:"seconds"`
	Trace         bool    `json:"trace"`
	Smoke         bool    `json:"smoke"`
	Result        result  `json:"result"`
	// EndToEnd holds the end-to-end metrics in traced runs too, so a
	// traced run can be compared with an untraced run of the same seed.
	EndToEnd  metrics            `json:"end_to_end"`
	Tails     map[string]tail    `json:"tails"`
	TrainAcc  map[string]float64 `json:"train_test_accuracy"`
	SetupS    []float64          `json:"setup_s_samples"`
	Serve     []rateSummary      `json:"serve_runs"`
	StealFrac float64            `json:"steal_frac"`
	PhaseS    map[string]float64 `json:"phase_s"`
	Notes     []string           `json:"notes"`
	SpanStats []spanSummary      `json:"span_summary,omitempty"`
}

// tail is a timing's spread: its minimum, median and highest
// well-sampled percentile.
type tail struct {
	Samples int     `json:"samples"`
	Min     float64 `json:"min"`
	P10     float64 `json:"p10"`
	Median  float64 `json:"median"`
	Label   string  `json:"tail_label"`
	Tail    float64 `json:"tail"`
}

func tailOf(xs []float64) tail {
	if len(xs) == 0 {
		return tail{}
	}
	label, v := tailQuantile(xs)
	return tail{Samples: len(xs), Min: quantile(xs, 0), P10: quantile(xs, 0.1), Median: median(xs), Label: label, Tail: v}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wlName := fs.String("workload", "", "workload: natural or act10")
	seed := fs.Uint64("seed", 1, "seed all inputs are generated from")
	seconds := fs.Int("seconds", 50, "wall-time budget of the run in seconds, set-up included")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting the per-layer split")
	smoke := fs.Bool("smoke", false, "tiny sizes: exercise every path and the output schema")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the run record and spans")
	root := fs.String("root", ".", "repository root, for the source digest")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var wl workload
	for _, w := range workloads {
		if w.name == *wlName {
			wl = w
		}
	}
	if wl.name == "" {
		return fmt.Errorf("unknown workload %q", *wlName)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		return errors.New("--seconds must be ≥ 1")
	}
	sz := fullSizes()
	if *smoke {
		sz = smokeSizes()
	}
	var tr *tracer
	if *traceFlag == 1 {
		tr = newTracer()
	}
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		// The load generator's goroutines must not get more OS threads
		// than the machine has CPUs.
		runtime.GOMAXPROCS(nproc)
	}
	ctx := context.Background()
	start := time.Now()
	budget := time.Duration(*seconds) * time.Second
	pl := newPerLayer()
	rec := record{Machine: stampMachine(*root), Workload: wl.name, Seed: *seed, Seconds: *seconds,
		Trace: tr != nil, Smoke: *smoke, Tails: map[string]tail{}, PhaseS: map[string]float64{}}
	steal0 := readSteal()
	phase := time.Now()
	lap := func(name string) {
		rec.PhaseS[name] = time.Since(phase).Seconds()
		phase = time.Now()
	}

	fx, setupS, err := setup(ctx, sz, wl, *seed, nproc, tr)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	rec.SetupS = setupS
	lap("setup")
	rec.InputActivity = fx.activity
	// The phases run interleaved, each in parts, so every metric samples
	// the host over the whole run: the host's speed drifts by several
	// percent over tens of seconds, and one long stretch per phase would
	// carry that drift into the run-to-run spread. Serving and training
	// do fixed work; infer-batch fills the rest of the budget, so the run
	// lasts about --seconds unless the fixed work alone takes longer on a
	// slow host (a traced run adds its layer-by-layer work).
	infer, err := newInferSession(ctx, fx, sz, tr, pl)
	if err != nil {
		return fmt.Errorf("infer-batch: %w", err)
	}
	srvSess, err := newServeSession(ctx, fx, sz, tr)
	if err != nil {
		return fmt.Errorf("serve-open: %w", err)
	}
	trainSess := newTrainSession(sz, *seed, tr)
	lap("counted_pass")
	inferChunk := time.Duration(sz.inferShare * float64(budget))
	var srv *serveResult
	steps := []struct {
		name string
		run  func() error
	}{
		{"serve_low", srvSess.runLow},
		{"train_1", trainSess.round},
		{"infer_1", func() error { infer.chunk(inferChunk); return nil }},
		{"serve_high", srvSess.runHigh},
		{"train_2", trainSess.round},
		{"infer_2", func() error { infer.chunk(inferChunk); return nil }},
		{"serve_ladder", srvSess.runLadder},
		{"serve_verify", func() (err error) { srv, err = srvSess.finish(pl); return err }},
		{"train_3", trainSess.round},
		{"infer_3", func() error { infer.chunk(budget - time.Since(start)); return nil }},
	}
	for _, step := range steps {
		if err := step.run(); err != nil {
			return err
		}
		lap(step.name)
	}
	inf, err := infer.finish(pl)
	if err != nil {
		return fmt.Errorf("infer-batch: %w", err)
	}
	trn := trainSess.finish(pl)
	lap("finish")

	for _, k := range kindNames {
		rec.Tails[k+"_ns_per_img"] = tailOf(inf.calls[k])
	}
	rec.Tails["serve_latency_ms_low"] = srv.lowTail
	rec.Tails["serve_latency_ms_high"] = srv.highTail
	e2e := metrics{}
	e2e.set("setup_s", median(setupS), "s")
	for _, k := range kindNames {
		e2e.set(k+"_ns_per_img", inf.nsPerImg[k], "ns/img")
	}
	e2e.set("allocs_per_img", inf.allocsPerImg, "allocs/img")
	e2e.set("accuracy", inf.accuracy, "fraction")
	e2e.set("sim_nj_per_img", inf.njPerImg, "nJ/img")
	e2e.set("sim_cycles_per_img", inf.cyclesPerImg, "cycles/img")
	e2e.set("serve_p50_ms_low", srv.p50Low, "ms")
	e2e.set("train_samples_per_s", trn.samplesPerS, "samples/s")
	// The serving p99s and capacity are printed with the end-to-end
	// metrics but reported to the gate as per-layer figures, which carry
	// no bound: on a shared 2-vCPU host their spread across ten seeds was
	// wider than any bound allowed (p99s 0.46-0.89 of the median at 1050
	// requests per rate; capacity up to 0.31, because a run's capacity
	// moves with the host's speed by more than its per-image times do).
	ungated := metrics{}
	ungated.set("serve_max_rps", srv.maxRPS, "req/s")
	ungated.set("serve_p99_ms_low", srv.p99Low, "ms")
	ungated.set("serve_p99_ms_high", srv.p99High, "ms")

	if tr != nil {
		setupLayers(tr, sz.setupReps, pl)
	}

	res := result{
		Attempted: inf.attempted + srv.attempted + trn.attempted,
		Failed:    inf.failed + srv.failed + trn.failed,
		Metrics:   e2e,
	}
	if tr != nil {
		res.Metrics = pl.metrics
	}
	rec.Notes = append(append(append(rec.Notes, inf.notes...), srv.notes...), trn.notes...)
	// JSON carries no NaN or Inf: such a value means the run measured
	// nothing there, which makes the run incorrect.
	res.Correct = res.Failed == 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Correct = false
			rec.Notes = append(rec.Notes, fmt.Sprintf("metric %s is %v", name, m.Value))
			res.Metrics[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	rec.Result = res
	rec.EndToEnd = e2e
	rec.TrainAcc = trn.accuracy
	rec.Serve = srv.runs
	rec.StealFrac = readSteal().fracSince(steal0)
	rec.SpanStats = tr.summary()
	if err := writeRecord(*outDir, rec, tr); err != nil {
		return err
	}

	printTable(stdout, "end-to-end", e2e)
	printTable(stdout, "end-to-end, not gated", ungated)
	if tr != nil {
		printTable(stdout, "per-layer (traced run)", pl.metrics)
	}
	for _, n := range rec.Notes {
		fmt.Fprintln(stdout, "note:", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// setupLayers reports the mean per-repetition time of each set-up layer.
func setupLayers(tr *tracer, reps int, pl *perLayer) {
	sum := func(names ...string) float64 {
		var s float64
		for _, n := range names {
			for _, d := range tr.durations(n) {
				s += d
			}
		}
		return s / 1e9 / float64(reps)
	}
	pl.set("train.run_s", sum("train.Run"), "s")
	pl.set("quant.calibrate_s", sum("quant.Calibrate", "quant.Apply"), "s")
	pl.set("convert.convert_s", sum("convert.Convert"), "s")
	pl.set("arch.compile_s", sum("arch.Compile"), "s")
	pl.set("fleet.new_pool_s", sum("fleet.NewPool"), "s")
}

// writeRecord writes the run record, and in a traced run the raw spans.
func writeRecord(dir string, rec record, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", rec.Workload, rec.Seed, btoi(rec.Trace))
	if err := writeJSON(filepath.Join(dir, base+".json"), rec); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return writeJSON(filepath.Join(dir, base+"-spans.json"), tr.spans)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printTable prints metrics by name with their units.
func printTable(w io.Writer, title string, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
