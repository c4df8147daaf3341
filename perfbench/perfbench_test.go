package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke builds the benchmark and runs every workload at tiny size,
// untraced and traced. Each run must pass its correctness gates and print,
// as its last line, a result with exactly the contract's keys and exactly
// the metrics BENCHMARK.json declares for that mode.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "perfbench")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				cmd := exec.Command(bin, "-workload", w.name, "-seed", "7", "-seconds", "1",
					"-trace", trace, "-size", "tiny", "-workdir", filepath.Join(dir, "work"))
				cmd.Dir = dir
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("run: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				checkResult(t, lastLine(stdout.String()), want)
			})
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "work", "*")); len(left) != 0 {
		t.Errorf("runs left scratch directories behind: %v", left)
	}
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

func checkResult(t *testing.T, line string, want []metricDef) {
	t.Helper()
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, line)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result lacks %q", k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result has %d keys, want 4: %s", len(keys), line)
	}
	var res resultOut
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.name)
		case got.Unit != m.unit:
			t.Errorf("metric %s unit %q, want %q", m.name, got.Unit, m.unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s = %v", m.name, got.Value)
		}
	}
}

// TestContractMatchesProgram checks BENCHMARK.json names exactly the
// workloads and metrics the program runs and reports.
func TestContractMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Errorf("contract has %d workloads, program %d", len(c.Workloads), len(workloads))
	}
	for i := range c.Workloads {
		if i < len(workloads) && c.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: contract %q, program %q", i, c.Workloads[i].Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: contract has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: contract %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd)
	same("per_layer", c.PerLayer, perLayer)
}
