package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the output schema is checked against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmokeSchema runs every phase at smoke sizes, untraced and traced,
// and checks the final output line against BENCHMARK.json: exactly the
// four result keys, and exactly the declared metrics with their units.
func TestSmokeSchema(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for _, w := range workloads {
		known = append(known, w.name)
	}
	if strings.Join(names, ",") != strings.Join(known, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark knows %v", names, known)
	}

	cases := []struct {
		workload, trace string
		want            map[string]string
	}{
		{"natural", "0", units(sp.EndToEnd)},
		{"act10", "1", units(sp.PerLayer)},
	}
	for _, c := range cases {
		t.Run(c.workload+"/trace"+c.trace, func(t *testing.T) {
			out := t.TempDir()
			var buf bytes.Buffer
			args := []string{"--smoke", "--workload", c.workload, "--seed", "3", "--seconds", "1",
				"--trace", c.trace, "--out", out, "--root", ".."}
			if err := run(args, &buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			last := lines[len(lines)-1]
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(last), &raw); err != nil {
				t.Fatalf("last line is not JSON: %v\n%s", err, last)
			}
			var keys []string
			for k := range raw {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
				t.Fatalf("result keys %s", got)
			}
			var res result
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, buf.String())
			}
			for name, unit := range c.want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("metric %s missing", name)
				} else if m.Unit != unit {
					t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := c.want[name]; !ok {
					t.Errorf("metric %s is not declared in BENCHMARK.json", name)
				}
			}
		})
	}
}

func units(ms []struct{ Name, Unit string }) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestCovered pins self-time arithmetic: overlapping children count once
// and parts outside the parent do not count.
func TestCovered(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 60}}
	if got := covered(parent, kids); got != 50 {
		t.Fatalf("covered = %v, want 50", got)
	}
}
