package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// kernelMACPoint is one row of the MACRead microbenchmark sweep: the
// dense reference walk against the frozen kernel at one active-row
// fraction on a full 128×128 array.
type kernelMACPoint struct {
	ActiveFrac    float64 `json:"active_frac"`
	DenseNsPerOp  float64 `json:"dense_ns_per_op"`
	KernelNsPerOp float64 `json:"kernel_ns_per_op"`
	Speedup       float64 `json:"speedup"`
}

// kernelBench is the BENCH_kernel.json schema.
type kernelBench struct {
	Env     benchEnv         `json:"env"`
	MACRead []kernelMACPoint `json:"macread"`
}

// benchMACRead times one read path over iters evaluations and returns
// nanoseconds per evaluation. Timing with the wall clock is deliberate:
// this is a command, outside the simulator's determinism boundary.
func benchMACRead(cb *crossbar.Crossbar, in []float64, act []int, iters int) (float64, error) {
	dst := make([]float64, cb.Cols)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := cb.MACReadInto(dst, in, act, nil, nil); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
}

// runKernelBench runs the MACRead microbenchmark sweep: the frozen-kernel
// read path against the dense reference across activity levels, written
// to outPath. The session-level kernel-on/kernel-off comparison is
// BenchmarkKernelOracle in internal/arch.
func runKernelBench(outPath string) error {
	// 128×128 array, IR drop on, event-driven reads.
	const rows, cols, iters = 128, 128, 4000
	cb := crossbar.New(rows, cols, device.DefaultParams(), crossbar.Config{IRDropAlpha: 0.3}, nil)
	w := tensor.New(rows, cols)
	r := rng.New(7)
	for i := range w.Data() {
		w.Data()[i] = 2*r.Float64() - 1
	}
	if err := cb.Program(w, 1.0); err != nil {
		return err
	}

	var points []kernelMACPoint
	fmt.Printf("MACRead frozen kernel vs dense reference (%d×%d, %d evals/point)\n", rows, cols, iters)
	for _, frac := range []float64{0.10, 0.50, 0.90, 1.00} {
		in := make([]float64, rows)
		var act []int
		for i := range in {
			if r.Float64() < frac {
				in[i] = r.Float64() + 0.1
				act = append(act, i)
			}
		}
		cb.DropKernel()
		denseNs, err := benchMACRead(cb, in, act, iters)
		if err != nil {
			return err
		}
		cb.BakeKernel()
		kernNs, err := benchMACRead(cb, in, act, iters)
		if err != nil {
			return err
		}
		pt := kernelMACPoint{ActiveFrac: frac, DenseNsPerOp: denseNs, KernelNsPerOp: kernNs, Speedup: denseNs / kernNs}
		points = append(points, pt)
		fmt.Printf("  %3.0f%% active: dense %8.0f ns, kernel %8.0f ns, %5.2fx\n",
			frac*100, denseNs, kernNs, pt.Speedup)
	}

	rec := kernelBench{Env: captureEnv(), MACRead: points}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		return err
	}
	fmt.Printf("  [wrote %s]\n", outPath)
	return nil
}
