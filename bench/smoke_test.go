package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestEveryWorkloadSmoke runs every workload, untraced and traced, for
// 200 ms with token counts: the result must carry every metric of its
// pass as a finite number, the oracle must be clean, and the driver's
// line must be well formed. Nothing here looks at a timing.
func TestEveryWorkloadSmoke(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		for _, trace := range []bool{false, true} {
			name := spec.name + "/untraced"
			if trace {
				name = spec.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				res, err := runWorkload(spec, runConfig{seed: 1, seconds: 0.2, trace: trace, quick: true, outDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.AckedLost != 0 || res.Failed != 0 || exitCode(res) != 0 {
					t.Fatalf("correct %v, acked_lost %d, failed %d of %d: %v", res.Correct, res.AckedLost, res.Failed, res.Attempted, res.Errors)
				}
				if res.Attempted < 1 {
					t.Fatal("nothing attempted")
				}
				for _, d := range defsFor(trace) {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("%s not reported", d.Name)
						continue
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", d.Name, m.Value)
					}
					if m.Unit != d.Unit {
						t.Errorf("%s reported in %q, defined in %q", d.Name, m.Unit, d.Unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, m.Value)
					}
				}
				if trace {
					if _, err := os.Stat(res.TraceFile); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
				left, err := filepath.Glob(filepath.Join(dir, "vol-*"))
				if err != nil || len(left) != 0 {
					t.Errorf("volumes left behind: %v %v", left, err)
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json, which the
// driver reads, in step with the tables compiled into the command.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
	}
}
