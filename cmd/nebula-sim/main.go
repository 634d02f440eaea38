// Command nebula-sim maps a full-size paper workload onto the NEBULA chip
// and prints the placement, energy and power reports in all three
// operating modes.
//
// Usage:
//
//	nebula-sim -workload vgg13-cifar10
//	nebula-sim -workload alexnet -timesteps 500 -hybrid 3
//	nebula-sim -workload lenet5 -schedule -traffic
//	nebula-sim -workload alexnet -health -faultrate 0.02
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/placement"
	"repro/internal/reliability"
)

func workloads() map[string]models.Workload {
	out := map[string]models.Workload{}
	for _, w := range models.PaperWorkloads() {
		out[w.Name] = w
	}
	return out
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, writes the reports to stdout and diagnostics to
// stderr, and returns the exit code: 0 on success, 1 on a failed run or
// a degraded health scan, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nebula-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "vgg13-cifar10", "workload name (see -list)")
	list := fs.Bool("list", false, "list available workloads")
	timesteps := fs.Int("timesteps", 0, "SNN window (0 = the workload's Table I value)")
	hybridK := fs.Int("hybrid", 3, "non-spiking layers in the hybrid report")
	schedule := fs.Bool("schedule", false, "print the compiled per-core configuration")
	traffic := fs.Bool("traffic", false, "simulate routed NoC traffic for one inference")
	meshSize := fs.Int("mesh", 14, "mesh dimension for placement (default 14×14)")
	health := fs.Bool("health", false, "run the chip-scale BIST health scan over the mapped workload")
	faultRate := fs.Float64("faultrate", 0.05, "device fault rate for -health (lines at rate/20)")
	protection := fs.String("protection", "spare", "protection level for -health: none|verify|spare")
	healthSeed := fs.Uint64("health-seed", 2020, "chip seed for -health (totals are deterministic per seed)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	ws := workloads()
	if *list {
		for _, w := range models.PaperWorkloads() {
			fmt.Fprintf(stdout, "  %-22s %-10s %2d weighted layers, T=%d\n",
				w.Name, w.Dataset, len(w.WeightedLayers()), w.Timesteps)
		}
		return 0
	}
	w, ok := ws[*name]
	if !ok {
		fmt.Fprintf(stderr, "nebula-sim: unknown workload %q (use -list)\n", *name)
		return 2
	}
	T := *timesteps
	if T == 0 {
		T = w.Timesteps
	}

	sim := core.New()

	if *health {
		prot, err := reliability.ParseProtection(*protection)
		if err != nil {
			fmt.Fprintf(stderr, "nebula-sim: %v\n", err)
			return 2
		}
		rel := reliability.StudyConfig(*faultRate, prot)
		np := mapping.MapWorkload(w)
		fmt.Fprintf(stdout, "BIST health scan: %s, device fault rate %.4f, protection %s, seed %d\n",
			w.Name, *faultRate, prot, *healthSeed)
		rpt, err := arch.HealthScan(context.Background(), np, sim.Device, crossbar.Config{}, rel, *healthSeed)
		if err != nil {
			fmt.Fprintf(stderr, "nebula-sim: health scan: %v\n", err)
			return 1
		}
		rpt.Render(stdout)
		if rpt.Degraded || !rpt.Healthy(rel.Policy.MaxUnmitigatedFrac) {
			fmt.Fprintf(stderr, "nebula-sim: health scan: chip degraded (unmitigated fraction %.4f, policy %.4f)\n",
				rpt.UnmitigatedFrac(), rel.Policy.MaxUnmitigatedFrac)
			return 1
		}
		return 0
	}

	sim.DescribeMapping(w, stdout)

	ann := sim.EstimateANN(w)
	snn := sim.EstimateSNN(w, T)
	hyb := sim.EstimateHybrid(w, T/2, *hybridK)

	fmt.Fprintf(stdout, "\nenergy & power (T=%d, hybrid: %d ANN layers @ T=%d)\n", T, *hybridK, T/2)
	fmt.Fprintf(stdout, "  mode    energy (µJ)   time (µs)   avg power (mW)   peak power (mW)\n")
	fmt.Fprintf(stdout, "  ANN     %10.3f   %9.2f   %13.3f   %14.3f\n",
		ann.EnergyJ*1e6, ann.TimeS*1e6, ann.AvgPowerW*1e3, ann.PeakPowerW*1e3)
	fmt.Fprintf(stdout, "  SNN     %10.3f   %9.2f   %13.3f   %14.3f\n",
		snn.EnergyJ*1e6, snn.TimeS*1e6, snn.AvgPowerW*1e3, snn.PeakPowerW*1e3)
	fmt.Fprintf(stdout, "  hybrid  %10.3f   %9.2f   %13.3f   %14.3f\n",
		hyb.EnergyJ*1e6, hyb.TimeS*1e6, hyb.AvgPowerW*1e3, hyb.PeakPowerW*1e3)
	fmt.Fprintf(stdout, "\nheadline ratios: E_SNN/E_ANN = %.2f   P_ANN/P_SNN = %.2f\n",
		snn.EnergyJ/ann.EnergyJ, ann.AvgPowerW/snn.AvgPowerW)

	if *schedule || *traffic {
		np := mapping.MapWorkload(w)
		a, err := placement.Place(np, *meshSize, *meshSize)
		if err != nil {
			fmt.Fprintf(stderr, "nebula-sim: %v\n", err)
			return 1
		}
		if *schedule {
			fmt.Fprintln(stdout)
			sched, err := compiler.Compile(a)
			if err != nil {
				fmt.Fprintf(stderr, "nebula-sim: %v\n", err)
				return 1
			}
			sched.Render(stdout)
			cost := sched.ProgrammingCost(sim.Device)
			fmt.Fprintf(stdout, "  weight loading: %d writes, %.1f nJ, %.2f ms serial\n",
				cost.Writes, cost.EnergyJ*1e9, cost.TimeS*1e3)
		}
		if *traffic {
			fmt.Fprintln(stdout)
			annT := a.SimulateTraffic(placement.ANNTraffic())
			fmt.Fprintf(stdout, "routed NoC traffic (ANN pass): %d packets, %.2f nJ, makespan %.2f µs, %.2f mean hops (analytic assumption %.2f)\n",
				annT.Stats.Packets, annT.EnergyJ()*1e9, annT.MakespanNS/1e3,
				annT.MeanHopsObserved, float64(*meshSize)*2/3)
		}
	}
	return 0
}
