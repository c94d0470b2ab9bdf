package trace_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mpcdist/internal/mpc"
	"mpcdist/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runWorkload drives a small deterministic two-round simulation into a
// collector and renders it as a one-party trace: Parallelism 1 serializes
// machine execution so the event stream (and, after timestamp
// normalization, the exported JSON) is byte-stable across runs.
func runWorkload(t *testing.T) []byte {
	t.Helper()
	col := &trace.Collector{}
	c := mpc.NewCluster(mpc.Config{Seed: 7, Parallelism: 1, MachineWords: 100, Observer: col})
	in := map[int][]mpc.Payload{
		0: {mpc.Ints{1, 2, 3}},
		1: {mpc.Ints{4, 5}},
		2: {mpc.Ints{6}},
	}
	mid, err := c.Run("scatter", trace.PhaseCandidates, in, func(x *mpc.Ctx, in []mpc.Payload) {
		x.Ops(int64(10 * (x.Machine + 1)))
		for _, p := range in {
			for _, v := range p.(mpc.Ints) {
				x.Send(v%2, mpc.Int(v))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run("gather", trace.PhaseCandidates, mid, func(x *mpc.Ctx, in []mpc.Payload) {
		x.Ops(int64(mpc.PayloadWords(in)))
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := col.Trace().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// normalize zeroes every wall-clock field of a trace file so two runs of
// the same deterministic workload compare equal.
func normalize(t *testing.T, raw []byte) []byte {
	t.Helper()
	var file struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	for _, ev := range file.TraceEvents {
		delete(ev, "ts")
		delete(ev, "dur")
		if args, ok := ev["args"].(map[string]any); ok {
			delete(args, "queueWaitUs")
			delete(args, "straggler")
		}
	}
	out, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func TestChromeGolden(t *testing.T) {
	got := normalize(t, runWorkload(t))

	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/trace/ -update` to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("normalized trace differs from golden (run with -update to regenerate)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestChromeStructure(t *testing.T) {
	raw := runWorkload(t)
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}

	// One complete-event span per (round, machine): round 0 has machines
	// 0..2, round 1 has machines 0..1 (v%2 destinations), plus one span
	// per round on the rounds track (tid 0).
	spansPerTid := map[int]int{}
	roundSpans := 0
	threadNames := map[int]string{}
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.Tid == 0 {
				roundSpans++
				if ev.Args["machines"] == nil || ev.Args["commWords"] == nil {
					t.Errorf("round span %q missing args: %+v", ev.Name, ev.Args)
				}
			} else {
				spansPerTid[ev.Tid]++
				if ev.Args["ops"] == nil || ev.Args["round"] == nil {
					t.Errorf("machine span %q missing args: %+v", ev.Name, ev.Args)
				}
			}
		case "M":
			if ev.Name == "thread_name" {
				threadNames[ev.Tid], _ = ev.Args["name"].(string)
			}
		}
	}
	if roundSpans != 2 {
		t.Errorf("round spans = %d, want 2", roundSpans)
	}
	// Machine 0 and 1 ran in both rounds (tids 1, 2); machine 2 only in
	// round 0 (tid 3).
	if spansPerTid[1] != 2 || spansPerTid[2] != 2 || spansPerTid[3] != 1 {
		t.Errorf("machine spans per tid = %v", spansPerTid)
	}
	if threadNames[0] != "rounds" || threadNames[1] != "machine 0" || threadNames[3] != "machine 2" {
		t.Errorf("thread names = %v", threadNames)
	}
}

func TestChromeFailedRoundVisible(t *testing.T) {
	col := &trace.Collector{}
	c := mpc.NewCluster(mpc.Config{MachineWords: 2, Observer: col})
	_, err := c.Run("boom", trace.PhaseCandidates, map[int][]mpc.Payload{0: {mpc.Ints{1, 2, 3}}}, func(x *mpc.Ctx, in []mpc.Payload) {})
	if err == nil {
		t.Fatal("want memory violation")
	}
	raw, jerr := col.Trace().JSON()
	if jerr != nil {
		t.Fatal(jerr)
	}
	if !bytes.Contains(raw, []byte(`"error"`)) || !bytes.Contains(raw, []byte("input")) {
		t.Errorf("failed round not visible in trace: %s", raw)
	}
}
