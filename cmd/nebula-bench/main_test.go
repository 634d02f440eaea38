package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestRunFig1AndServeSmoke drives the real CLI entry point end to end:
// flag parsing, the profile writers, the CSV side channel, one analytic
// experiment and the smoke-scale serving-tier study, checking the
// BENCH record lands on disk as valid JSON. run() registers its flags
// on the process-global FlagSet, so the whole CLI surface is exercised
// in this one invocation.
func TestRunFig1AndServeSmoke(t *testing.T) {
	dir := t.TempDir()
	serveOut := filepath.Join(dir, "BENCH_serve.json")

	oldArgs := os.Args
	defer func() { os.Args = oldArgs }()
	os.Args = []string{
		"nebula-bench",
		"-exp", "fig1,table3,fig12,fig13a,fig13b,fig14,fig15,fig16,fig17,ablations,sensitivity,serve",
		"-serve-smoke",
		"-serveout", serveOut,
		"-csv", filepath.Join(dir, "csv"),
		"-cpuprofile", filepath.Join(dir, "cpu.pprof"),
		"-memprofile", filepath.Join(dir, "mem.pprof"),
	}
	if code := run(); code != 0 {
		t.Fatalf("run() = %d, want 0", code)
	}

	raw, err := os.ReadFile(serveOut)
	if err != nil {
		t.Fatalf("reading serve record: %v", err)
	}
	var rec serveBench
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("serve record is not valid JSON: %v", err)
	}
	if rec.Env.GoVersion == "" {
		t.Fatalf("serve record missing env stamp: %+v", rec.Env)
	}
	if len(rec.Result.Shapes) == 0 {
		t.Fatalf("serve record has no determinism phase: %+v", rec.Result)
	}
	for _, s := range rec.Result.Shapes {
		if s.Mismatched != 0 {
			t.Fatalf("shape batch=%d not bitwise clean in record: %+v", s.BatchSize, s)
		}
	}
	if len(rec.Result.Levels) != 0 {
		t.Fatalf("smoke record grew a load phase: %+v", rec.Result.Levels)
	}

	if _, err := os.Stat(filepath.Join(dir, "csv", "fig1.csv")); err != nil {
		t.Fatalf("fig1 CSV not written: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cpu.pprof")); err != nil {
		t.Fatalf("cpu profile not written: %v", err)
	}

	// An unknown experiment name is a usage error (exit code 2). run()
	// registers flags on the global FlagSet, so give it a fresh one for
	// the second invocation.
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	os.Args = []string{"nebula-bench", "-exp", "no-such-experiment"}
	if code := run(); code != 2 {
		t.Fatalf("run() with unknown experiment = %d, want 2", code)
	}

	// The retired timing experiments are unknown names like any other.
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	os.Args = []string{"nebula-bench", "-exp", "session"}
	if code := run(); code != 2 {
		t.Fatalf("run() with -exp session = %d, want 2", code)
	}
}
