package main

import (
	"bytes"
	"strings"
	"testing"
)

// runSim drives the CLI entry point and returns its exit code and both
// output streams.
func runSim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errs bytes.Buffer
	code := run(args, &out, &errs)
	return code, out.String(), errs.String()
}

// wantAll fails unless every fragment appears in s.
func wantAll(t *testing.T, what, s string, fragments ...string) {
	t.Helper()
	for _, f := range fragments {
		if !strings.Contains(s, f) {
			t.Fatalf("%s lacks %q:\n%s", what, f, s)
		}
	}
}

func TestRunList(t *testing.T) {
	code, out, errs := runSim(t, "-list")
	if code != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	wantAll(t, "-list", out, "mlp3", "lenet5", "vgg13-cifar10", "alexnet", "weighted layers")
}

// TestRunMappingScheduleTraffic covers the default report path: the
// mapping table, the three-mode energy table, the compiled schedule and
// the routed NoC traffic.
func TestRunMappingScheduleTraffic(t *testing.T) {
	code, out, errs := runSim(t, "-workload", "lenet5", "-schedule", "-traffic")
	if code != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	wantAll(t, "report", out,
		"mapping of lenet5 onto NEBULA (5 weighted layers)",
		"energy & power (T=40, hybrid: 3 ANN layers @ T=20)",
		"  ANN ", "  SNN ", "  hybrid ", "headline ratios",
		"compiled schedule for lenet5: 5 core programs",
		"weight loading:",
		"routed NoC traffic (ANN pass):")
}

// TestRunHealthDeterministic runs the BIST health scan at the default
// seed: the chip must pass the policy, and a second scan must print the
// same totals.
func TestRunHealthDeterministic(t *testing.T) {
	code, out, errs := runSim(t, "-workload", "lenet5", "-health")
	if code != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	wantAll(t, "health report", out, "BIST health scan: lenet5", "seed 2020", "injected", "residual", "→ OK")
	if _, again, _ := runSim(t, "-workload", "lenet5", "-health"); again != out {
		t.Fatalf("health scan not deterministic at a fixed seed:\n%s\n---\n%s", out, again)
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-workload", "lenet5", "-health", "-protection", "no-such-level"},
		{"-throughput"},
	} {
		if code, _, errs := runSim(t, args...); code != 2 || errs == "" {
			t.Fatalf("%v: exit %d with stderr %q, want exit 2 and a diagnostic", args, code, errs)
		}
	}
}
