// Command perfbench is the repository's benchmark. It drives the system
// only through exported calls (the library, a distributed session, the
// HTTP server), checks every answer against an exact oracle, and prints
// the end-to-end metrics (--trace 0) or the per-layer split of each job's
// time (--trace 1). The last line of its output is one JSON object; see
// README.md for the workloads and metrics.
//
//	perfbench --workload edit-far --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"mpcdist/internal/dist"
)

// setupReps is how many times a run brings its system up; setup_s is the
// median of those times.
const setupReps = 5

var workloadNames = []string{"edit-far", "edit-near-cluster", "serve-rank"}

func newWorkload(name string, seed int64, dir string) workload {
	switch name {
	case "edit-far":
		return newEditFar(seed)
	case "edit-near-cluster":
		return newNearCluster(seed, dir)
	case "serve-rank":
		return newServeRank(seed)
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one workload's run: all jobs attempted and the metrics.
type report struct {
	outs    []outcome
	metrics map[string]float64

	// The model counts summed over the fresh jobs with id < modelJobs.
	model         modelCounts
	modelJobs     int
	modelAnswered int

	// Traced runs: the layer split and wall time summed over traced jobs.
	split      layerSplit
	splitJobs  int
	tracedWall float64 // ms
}

func main() {
	dist.MaybeWorkerMain() // session workers re-exec this binary
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	traced := flag.Int("trace", 0, "1: per-layer metrics from a traced run; 0: end-to-end metrics")
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	if !slices.Contains(workloadNames, names[0]) || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// Checkpoint stores live in the checkout's build directory.
	err := os.MkdirAll(".bench_build", 0o755)
	var dir string
	if err == nil {
		dir, err = os.MkdirTemp(".bench_build", "run-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := runAll(names, *seed, time.Duration(*seconds)*time.Second, *traced == 1, dir)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs each named workload and merges their results; with more
// than one, metric names are prefixed with the workload's.
func runAll(names []string, seed int64, d time.Duration, traced bool, dir string) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, name := range names {
		w := newWorkload(name, seed, dir)
		var rep report
		var err error
		if traced {
			rep, err = runTraced(w, d)
		} else {
			rep, err = runPlain(w, d)
		}
		if err != nil {
			return res, fmt.Errorf("%s: %w", name, err)
		}
		failed := countFailed(rep.outs)
		res.Attempted += len(rep.outs)
		res.Failed += failed
		res.Correct = res.Correct && failed == 0
		prefix := ""
		if len(names) > 1 {
			prefix = name + "/"
		}
		for _, def := range defs {
			res.Metrics[prefix+def.name] = metric{Value: rep.metrics[def.name], Unit: def.unit}
		}
		printReport(name, rep, defs, traced)
	}
	return res, nil
}

// setUpTimed brings w's system up setupReps times, keeping the last one,
// and returns it with the set-up times in seconds.
func setUpTimed(w workload) (system, []float64, error) {
	var sys system
	var times []float64
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		s, err := w.setUp(nil)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		sys = s
	}
	return sys, times, nil
}

// runPlain is the untraced run: set up, then a closed loop for d.
func runPlain(w workload, d time.Duration) (report, error) {
	sys, setups, err := setUpTimed(w)
	if err != nil {
		return report{}, err
	}
	var outs []outcome
	var elapsed time.Duration
	var mem memDelta
	rss, err := sampleRSS(func() {
		mem = memWindow(func() { outs, elapsed = closedLoop(w, sys, d) })
	})
	if cerr := sys.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return report{}, err
	}
	rep := report{outs: outs, metrics: endToEndMetrics(outs, elapsed, mem, rss, setups), modelJobs: w.modelJobs()}
	rep.model, rep.modelAnswered = modelPrefix(outs, w.modelJobs())
	return rep, nil
}

// runTraced is the traced run. Its first half runs the workload untraced
// (runtime and server metrics, the untraced latencies); its second half
// runs the same jobs with the tracer attached. serve-rank's server takes
// no observer, so its second half replays the served queries through the
// library call the server makes, untraced and traced in turn.
func runTraced(w workload, d time.Duration) (report, error) {
	half := d / 2
	sys, err := w.setUp(nil)
	if err != nil {
		return report{}, err
	}
	var plain []outcome
	mem := memWindow(func() { plain, _ = closedLoop(w, sys, half) })
	if err := sys.close(); err != nil {
		return report{}, err
	}
	tr := newTracer()
	var untraced, traced, served []outcome
	if sr, ok := w.(*serveRank); ok {
		served = plain
		untraced, traced = sr.replay(plain, tr, half)
	} else {
		if sys, err = w.setUp(tr); err != nil {
			return report{}, err
		}
		traced, _ = closedLoop(w, sys, half)
		if err := sys.close(); err != nil {
			return report{}, err
		}
		untraced = plain
	}
	outs := append([]outcome(nil), plain...)
	if served != nil {
		outs = append(outs, untraced...) // replayed jobs; else untraced is plain
	}
	outs = append(outs, traced...)
	rep := report{
		outs:      outs,
		metrics:   layerMetrics(traced, untraced, mem, len(plain), served, w.modelJobs()),
		modelJobs: w.modelJobs(),
		splitJobs: len(traced),
	}
	rep.model, rep.modelAnswered = modelPrefix(traced, w.modelJobs())
	for _, o := range traced {
		rep.split = rep.split.add(o.split)
		rep.tracedWall += ms(o.wall)
	}
	return rep, nil
}

// printReport writes the human-readable part of the output: every metric
// with its unit, the sample counts, failures, and the model counts.
func printReport(name string, rep report, defs []metricDef, traced bool) {
	failed := countFailed(rep.outs)
	fmt.Printf("== %s: %d jobs, %d failed (failed_frac %.4f)\n",
		name, len(rep.outs), failed, float64(failed)/float64(max(1, len(rep.outs))))
	shown := 0
	for _, o := range rep.outs {
		if o.err != nil && shown < 5 {
			fmt.Printf("   FAILED job %d: %v\n", o.id, o.err)
			shown++
		}
	}
	for _, def := range defs {
		line := fmt.Sprintf("   %-28s %16.4f %s", def.name, rep.metrics[def.name], def.unit)
		if traced {
			line += "    moves " + def.moves
		}
		fmt.Println(line)
	}
	if !traced && len(rep.outs) < 100 {
		fmt.Printf("   note: job_p90_ms rests on %d samples, fewer than 10 beyond it\n", len(rep.outs))
	}
	if !traced {
		fmt.Printf("   peak resident memory so far: %.1f MB\n", peakRSSMB())
	}
	if traced {
		s, n := rep.split, float64(max(1, rep.splitJobs))
		parts := []time.Duration{s.driver, s.dispatch, s.exec, s.exchange, s.save, s.resume, s.overhead}
		var sum time.Duration
		for _, p := range parts {
			sum += p
		}
		fmt.Printf("   split per traced job (ms): driver %.3f + dispatch %.3f + exec %.3f + exchange %.3f"+
			" + save %.3f + resume %.3f + mpc overhead %.3f = %.3f; traced wall %.3f\n",
			ms(s.driver)/n, ms(s.dispatch)/n, ms(s.exec)/n, ms(s.exchange)/n, ms(s.save)/n,
			ms(s.resume)/n, ms(s.overhead)/n, ms(sum)/n, rep.tracedWall/n)
	}
	fmt.Printf("   model counts, fresh jobs 0..%d (%d answered): %s\n", rep.modelJobs-1, rep.modelAnswered, rep.model)
}

func (m modelCounts) String() string {
	runs := "n/a"
	if m.machineRuns >= 0 {
		runs = fmt.Sprint(m.machineRuns)
	}
	return fmt.Sprintf("guesses=%d rounds=%d machine_runs=%s comm_words=%d ops=%d critical_ops=%d",
		m.guesses, m.rounds, runs, m.commWords, m.ops, m.criticalOps)
}
