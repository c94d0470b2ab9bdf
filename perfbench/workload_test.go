package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestSchedule(t *testing.T) {
	const clients, repeat = 2, 5
	for c := 0; c < clients; c++ {
		sent := map[int]bool{}
		next := c
		for k := 0; k < 200; k++ {
			id, fresh := schedule(c, k, clients, repeat)
			if id%clients != c {
				t.Fatalf("client %d job %d got id %d of another client", c, k, id)
			}
			if fresh != (k%repeat != repeat-1) {
				t.Fatalf("client %d job %d: fresh = %v", c, k, fresh)
			}
			if fresh {
				if id != next {
					t.Fatalf("client %d job %d: fresh id %d, want %d", c, k, id, next)
				}
				sent[id] = true
				next += clients
			} else if !sent[id] {
				t.Fatalf("client %d job %d repeats id %d it never sent", c, k, id)
			}
		}
	}
	for k := 0; k < 10; k++ {
		if id, fresh := schedule(0, k, 1, 0); id != k || !fresh {
			t.Fatalf("repeat 0: job %d got (%d, %v), want (%d, true)", k, id, fresh, k)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// the same workloads and the same metric names, units and directions.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		json []def
		prog []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.prog))
		}
		for i, m := range c.prog {
			if j := c.json[i]; j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
				t.Errorf("metric %d: %+v in BENCHMARK.json, %+v in the program", i, j, m)
			}
		}
	}
}
