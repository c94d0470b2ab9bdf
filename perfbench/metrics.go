package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"mpcdist/internal/trace"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (checked by TestBenchmarkJSONMatches).
type metricDef struct {
	name, unit, better string
	// moves, for a per-layer metric, is the end-to-end metric and
	// workload an optimisation of that layer should move.
	moves string
}

// endToEnd are the metrics an untraced run (--trace 0) reports.
var endToEnd = []metricDef{
	{name: "job_p50_ms", unit: "ms", better: "lower"},
	{name: "job_p90_ms", unit: "ms", better: "lower"},
	{name: "jobs_per_s", unit: "1/s", better: "higher"},
	{name: "alloc_mb_per_job", unit: "MB", better: "lower"},
	{name: "allocs_per_job", unit: "count", better: "lower"},
	{name: "rss_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// perLayer are the metrics a traced run (--trace 1) reports, per job
// unless the name says otherwise. A layer a workload bypasses reads 0.
var perLayer = []metricDef{
	{"core.driver_ms", "ms", "lower", sanity},
	{"core.guesses", "count", "lower", sanity},
	{"mpc.round_ms", "ms", "lower", substrate},
	{"mpc.overhead_ms", "ms", "lower", substrate},
	{"mpc.queue_wait_ms", "ms", "lower", substrate},
	{"mpc.rounds", "count", "lower", substrate},
	{"mpc.machine_runs", "count", "lower", substrate},
	{"mpc.messages", "count", "lower", substrate},
	{"mpc.comm_words", "count", "lower", substrate},
	{"kernel.busy_ms", "ms", "lower", kernel},
	{"kernel.exec_ms", "ms", "lower", kernel},
	{"kernel.graph_busy_ms", "ms", "lower", "job_p50_ms, jobs_per_s on edit-far (0 elsewhere)"},
	{"kernel.candidates_busy_ms", "ms", "lower", ulamKernels},
	{"kernel.chain_busy_ms", "ms", "lower", ulamKernels},
	{"kernel.ops", "count", "lower", kernel},
	{"kernel.critical_ops", "count", "lower", kernel},
	{"kernel.straggler_max", "ratio", "lower", kernel},
	{"transport.exchange_ms", "ms", "lower", cluster},
	{"transport.wire_kb", "KB", "lower", cluster},
	{"transport.frames", "count", "lower", cluster},
	{"transport.reconnects", "count", "lower", cluster},
	{"transport.corrupt_frames", "count", "lower", cluster},
	{"dist.dispatch_ms", "ms", "lower", cluster},
	{"checkpoint.save_ms", "ms", "lower", ckpt},
	{"checkpoint.resume_ms", "ms", "lower", ckpt},
	{"checkpoint.kb", "KB", "lower", ckpt},
	{"checkpoint.steps", "count", "lower", ckpt},
	{"checkpoint.resume_hit_frac", "ratio", "higher", ckpt},
	{"server.overhead_ms", "ms", "lower", serving},
	{"server.compute_ms", "ms", "lower", serving},
	{"server.cache_hit_frac", "ratio", "higher", serving},
	{"trace.events", "count", "lower", "the tracing cost itself"},
	{"trace.overhead_frac", "ratio", "lower", "the tracing cost itself"},
	{"runtime.gc_ms", "ms", "lower", "job_p50_ms on edit-far"},
	{"runtime.gc_cycles", "count", "lower", "job_p50_ms on edit-far"},
}

// Where an optimisation of each layer should show (README.md has the
// same table).
const (
	sanity      = "little anywhere (sanity bound)"
	substrate   = "job_p50_ms, alloc_mb_per_job on edit-far; no change on serve-rank"
	kernel      = "job_p50_ms on every workload"
	ulamKernels = "job_p50_ms on serve-rank, edit-near-cluster"
	cluster     = "job_p50_ms on edit-near-cluster only"
	ckpt        = "job_p50_ms, job_p90_ms on edit-near-cluster only"
	serving     = "job_p90_ms on serve-rank"
)

// memDelta is the heap activity of the benchmark process over a window.
type memDelta struct{ bytes, objects, gcPause, gcCycles float64 }

// memWindow runs f and reports the process's heap activity during it.
func memWindow(f func()) memDelta {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return memDelta{
		bytes:    float64(m1.TotalAlloc - m0.TotalAlloc),
		objects:  float64(m1.Mallocs - m0.Mallocs),
		gcPause:  float64(m1.PauseTotalNs - m0.PauseTotalNs),
		gcCycles: float64(m1.NumGC - m0.NumGC),
	}
}

// peakRSSMB is the peak resident memory of this process so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// rssEvery is the resident-memory sampling period.
const rssEvery = 50 * time.Millisecond

// sampleRSS runs f while sampling this process's resident memory (in MB)
// every rssEvery from /proc/self/statm, and returns the samples.
func sampleRSS(f func()) ([]float64, error) {
	read := func() (float64, error) {
		data, err := os.ReadFile("/proc/self/statm")
		if err != nil {
			return 0, err
		}
		var size, resident int64
		if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
			return 0, fmt.Errorf("parsing /proc/self/statm: %w", err)
		}
		return float64(resident*int64(os.Getpagesize())) / 1e6, nil
	}
	if _, err := read(); err != nil {
		return nil, err
	}
	stop, done := make(chan struct{}), make(chan []float64)
	go func() {
		var xs []float64
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- xs
				return
			case <-tick.C:
				if x, err := read(); err == nil {
					xs = append(xs, x)
				}
			}
		}
	}()
	f()
	close(stop)
	return <-done, nil
}

func walls(outs []outcome) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = ms(o.wall)
	}
	return xs
}

func countFailed(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if o.err != nil {
			n++
		}
	}
	return n
}

// endToEndMetrics computes the untraced run's metrics from its outcomes,
// measurement window, heap activity and resident-memory samples, and its
// set-up times in seconds.
func endToEndMetrics(outs []outcome, elapsed time.Duration, mem memDelta, rss, setups []float64) map[string]float64 {
	w := walls(outs)
	n := float64(len(outs))
	return map[string]float64{
		"job_p50_ms":       percentile(w, 50),
		"job_p90_ms":       percentile(w, 90),
		"jobs_per_s":       float64(len(outs)-countFailed(outs)) / elapsed.Seconds(),
		"alloc_mb_per_job": mem.bytes / 1e6 / n,
		"allocs_per_job":   mem.objects / n,
		"rss_mb":           percentile(rss, 50),
		"setup_s":          percentile(setups, 50),
	}
}

// modelPrefix sums the model counts of the fresh jobs with id < n: the
// prefix every run completes, so the sums repeat exactly at a seed.
func modelPrefix(outs []outcome, n int) (modelCounts, int) {
	var m modelCounts
	jobs := 0
	for _, o := range outs {
		if !o.fresh || o.id >= n || o.err != nil {
			continue
		}
		jobs++
		m.guesses += o.counts.guesses
		m.rounds += o.counts.rounds
		if m.machineRuns >= 0 {
			m.machineRuns += o.counts.machineRuns
		}
		if o.counts.machineRuns < 0 {
			m.machineRuns = -1
		}
		m.commWords += o.counts.commWords
		m.ops += o.counts.ops
		m.criticalOps += o.counts.criticalOps
	}
	return m, jobs
}

// layerMetrics computes the traced run's per-layer metrics. traced are
// the jobs run with the tracer attached and untraced the same jobs run
// without it; mem is the heap activity of an untraced window of jobs
// (runtime metrics) and served the server's answers (server metrics).
func layerMetrics(traced, untraced []outcome, mem memDelta, memJobs int, served []outcome, modelJobs int) map[string]float64 {
	m := map[string]float64{}
	var split layerSplit
	var busy = map[trace.Phase]time.Duration{}
	var all time.Duration
	var events, saves, resumed, repeatRounds, wire, frames, reconnects, corrupt, ckpt float64
	var queue time.Duration
	var straggler float64
	for _, o := range traced {
		s := o.split
		split = split.add(s)
		for p, d := range o.tr.busy {
			busy[p] += d
			all += d
		}
		events += float64(o.tr.events)
		saves += float64(o.tr.saves)
		queue += o.tr.queue
		if !o.fresh {
			resumed += float64(s.resumes)
			repeatRounds += float64(len(o.tr.rounds))
		}
		wire += float64(o.wireBytes)
		frames += float64(o.frames)
		reconnects += float64(o.reconnects)
		corrupt += float64(o.corrupt)
		ckpt += float64(o.ckptBytes)
		straggler += o.straggler
	}
	n := float64(max(1, len(traced)))
	perJob := func(d time.Duration) float64 { return ms(d) / n }
	perStep := func(d time.Duration, steps float64) float64 {
		if steps == 0 {
			return 0
		}
		return ms(d) / steps
	}
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["core.driver_ms"] = perJob(split.driver)
	m["mpc.round_ms"] = perJob(split.round)
	m["mpc.overhead_ms"] = perJob(split.overhead)
	m["mpc.queue_wait_ms"] = perJob(queue)
	m["kernel.busy_ms"] = perJob(all)
	m["kernel.exec_ms"] = perJob(split.exec)
	m["kernel.graph_busy_ms"] = perJob(busy[trace.PhaseGraph])
	m["kernel.candidates_busy_ms"] = perJob(busy[trace.PhaseCandidates])
	m["kernel.chain_busy_ms"] = perJob(busy[trace.PhaseChain])
	m["kernel.straggler_max"] = straggler / n
	m["transport.exchange_ms"] = perJob(split.exchange)
	m["transport.wire_kb"] = wire / 1e3 / n
	m["transport.frames"] = frames / n
	m["transport.reconnects"] = reconnects / n
	m["transport.corrupt_frames"] = corrupt / n
	m["dist.dispatch_ms"] = perJob(split.dispatch)
	m["checkpoint.save_ms"] = perStep(split.save, saves)
	m["checkpoint.resume_ms"] = perStep(split.resume, float64(split.resumes))
	m["checkpoint.kb"] = ckpt / 1e3 / n
	m["checkpoint.steps"] = saves / n
	m["checkpoint.resume_hit_frac"] = frac(resumed, repeatRounds)
	m["trace.events"] = events / n
	m["trace.overhead_frac"] = frac(percentile(walls(traced), 50), percentile(walls(untraced), 50)) - 1
	m["runtime.gc_ms"] = mem.gcPause / 1e6 / float64(max(1, memJobs))
	m["runtime.gc_cycles"] = mem.gcCycles / float64(max(1, memJobs))

	// Model counts: means over the prefix of fresh jobs every run has.
	mc, jobs := modelPrefix(traced, modelJobs)
	var prefixSends float64
	for _, o := range traced {
		if o.fresh && o.id < modelJobs && o.err == nil {
			prefixSends += float64(o.tr.sends)
		}
	}
	j := float64(max(1, jobs))
	m["core.guesses"] = float64(mc.guesses) / j
	m["mpc.rounds"] = float64(mc.rounds) / j
	m["mpc.machine_runs"] = float64(mc.machineRuns) / j
	m["mpc.messages"] = prefixSends / j
	m["mpc.comm_words"] = float64(mc.commWords) / j
	m["kernel.ops"] = float64(mc.ops) / j
	m["kernel.critical_ops"] = float64(mc.criticalOps) / j

	// Server: uncached answers split into compute and everything else.
	var over, comp []float64
	cached := 0
	for _, o := range served {
		if o.err != nil {
			continue
		}
		if o.cached {
			cached++
			continue
		}
		over = append(over, ms(o.wall-o.compute))
		comp = append(comp, ms(o.compute))
	}
	m["server.overhead_ms"] = percentile(over, 50)
	m["server.compute_ms"] = percentile(comp, 50)
	m["server.cache_hit_frac"] = frac(float64(cached), float64(len(served)))
	return m
}
