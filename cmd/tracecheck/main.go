// Command tracecheck validates a Chrome trace-event JSON file — the output
// of mpcdist/mpctable -trace, local or distributed, or a flight-recorder
// dump — and exits nonzero on the first class of violation found. CI runs
// it on the trace artifacts, so a regression in the trace pipeline fails
// the build instead of producing a silently broken timeline.
//
// Checks:
//   - the file parses as a trace-event container with at least one event;
//   - no event has a negative timestamp or negative duration;
//   - every event lands on a named lane: its pid has a process_name
//     metadata event and its (pid, tid) a thread_name metadata event;
//   - with -min-procs N, at least N distinct named process lanes exist
//     (a 3-worker cluster trace must show coordinator + workers + transport).
//
// Usage:
//
//	tracecheck out.json
//	tracecheck -min-procs 5 out.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"mpcdist/internal/buildinfo"
)

type event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents []event `json:"traceEvents"`
}

func main() {
	minProcs := flag.Int("min-procs", 0, "fail unless at least this many named process lanes exist")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("tracecheck"))
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-min-procs N] trace.json")
		os.Exit(2)
	}
	path := flag.Arg(0)
	raw, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var file traceFile
	if err := json.Unmarshal(raw, &file); err != nil {
		fail("%s: not a trace-event file: %v", path, err)
	}
	if len(file.TraceEvents) == 0 {
		fail("%s: empty trace (no events)", path)
	}

	// First pass: collect the lane metadata.
	type lane struct{ pid, tid int }
	procNames := map[int]string{}
	threadNames := map[lane]string{}
	for _, ev := range file.TraceEvents {
		if ev.Ph != "M" {
			continue
		}
		name, _ := ev.Args["name"].(string)
		switch ev.Name {
		case "process_name":
			procNames[ev.Pid] = name
		case "thread_name":
			threadNames[lane{ev.Pid, ev.Tid}] = name
		}
	}

	// Second pass: every real event must be laned and non-negative in time.
	bad := 0
	complain := func(format string, args ...any) {
		bad++
		if bad <= 20 {
			fmt.Fprintf(os.Stderr, "tracecheck: "+format+"\n", args...)
		}
	}
	for i, ev := range file.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.Ts != nil && *ev.Ts < 0 {
			complain("event %d (%s): negative ts %v", i, ev.Name, *ev.Ts)
		}
		if ev.Dur != nil && *ev.Dur < 0 {
			complain("event %d (%s): negative dur %v", i, ev.Name, *ev.Dur)
		}
		if _, ok := procNames[ev.Pid]; !ok {
			complain("event %d (%s): pid %d has no process_name lane", i, ev.Name, ev.Pid)
		}
		if _, ok := threadNames[lane{ev.Pid, ev.Tid}]; !ok {
			complain("event %d (%s): (pid %d, tid %d) has no thread_name lane", i, ev.Name, ev.Pid, ev.Tid)
		}
	}
	if bad > 20 {
		fmt.Fprintf(os.Stderr, "tracecheck: ... and %d more violations\n", bad-20)
	}
	if *minProcs > 0 && len(procNames) < *minProcs {
		names := make([]string, 0, len(procNames))
		for _, n := range procNames {
			names = append(names, n)
		}
		sort.Strings(names)
		fail("%s: %d named process lanes %v, want >= %d", path, len(procNames), names, *minProcs)
	}
	if bad > 0 {
		fail("%s: %d violations", path, bad)
	}
	events := 0
	for _, ev := range file.TraceEvents {
		if ev.Ph != "M" {
			events++
		}
	}
	fmt.Printf("tracecheck: %s ok: %d events, %d process lanes, %d tracks\n",
		path, events, len(procNames), len(threadNames))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracecheck: "+format+"\n", args...)
	os.Exit(1)
}
