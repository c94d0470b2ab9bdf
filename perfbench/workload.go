package main

import (
	"math/rand"
	"sync"
	"time"

	"mpcdist/internal/core"
)

// workload is one benchmark input set together with the system that
// serves it.
type workload interface {
	// setUp brings the measured system up, warm-up jobs included, with tr
	// (when non-nil) attached as its observer.
	setUp(tr *tracer) (system, error)
	// shape is the number of closed-loop clients and the repeat period
	// of their job schedules (see schedule).
	shape() (clients, repeat int)
	// modelJobs is how many fresh jobs every run completes at least: the
	// model counts of the jobs with smaller ids repeat exactly at a
	// fixed seed.
	modelJobs() int
}

// system is a set-up workload ready to take jobs.
type system interface {
	// job runs job id for client c, checks its answer, and reports it.
	// A job that is not fresh repeats one the client ran before.
	job(c, id int, fresh bool) outcome
	close() error
}

// modelCounts are a job's deterministic model quantities. They depend
// only on the inputs and the seed, so a repeated job must reproduce them.
type modelCounts struct {
	guesses     int
	rounds      int
	machineRuns int // -1 when the answer does not carry per-round detail
	commWords   int64
	ops         int64
	criticalOps int64
}

func countsOf(res core.Result) modelCounts {
	m := modelCounts{
		guesses:     max(1, len(res.GuessReports)),
		rounds:      len(res.Report.Rounds),
		commWords:   res.Report.CommWords,
		ops:         res.Report.TotalOps,
		criticalOps: res.Report.CriticalOps,
	}
	for _, r := range res.Report.Rounds {
		m.machineRuns += r.Machines
	}
	return m
}

// outcome is what one job yields.
type outcome struct {
	id     int   // fresh job id; the job's inputs and seed derive from it
	fresh  bool  // false for a job that repeats an earlier one
	err    error // run error or failed correctness check
	wall   time.Duration
	value  int
	counts modelCounts

	straggler float64    // worst per-round max/mean machine time
	tr        *jobTrace  // traced runs only
	split     layerSplit // traced runs only

	// Session jobs: the coordinator's transport counters and checkpoint
	// bytes flushed during the job.
	wireBytes, frames, reconnects, corrupt, ckptBytes int64

	// Server jobs.
	cached  bool
	compute time.Duration // Answer.ElapsedMs
}

// schedule maps client c's k-th job to a job id. With repeat >= 2, every
// repeat-th job resubmits one of the client's earlier fresh jobs; with
// repeat 0 every job is fresh. Fresh ids interleave across clients, so no
// two clients send the same fresh job.
func schedule(c, k, clients, repeat int) (id int, fresh bool) {
	f := k // fresh jobs the client sent before job k
	if repeat > 0 {
		f = k - k/repeat
		if k%repeat == repeat-1 {
			pick := int(uint64(k) * 2654435761 % uint64(f))
			return pick*clients + c, false
		}
	}
	return f*clients + c, true
}

// closedLoop runs every client's schedule, each job sent only after the
// previous one answered, until d has passed and every fresh job with an
// id below w.modelJobs() has run. It returns all outcomes and the time
// until the last client finished.
func closedLoop(w workload, sys system, d time.Duration) ([]outcome, time.Duration) {
	clients, repeat := w.shape()
	start := time.Now()
	per := make([][]outcome, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := c // the client's next fresh id
			for k := 0; next < w.modelJobs() || time.Since(start) < d; k++ {
				id, fresh := schedule(c, k, clients, repeat)
				per[c] = append(per[c], sys.job(c, id, fresh))
				if fresh {
					next = id + clients
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []outcome
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// randText returns n letters drawn uniformly from the first sigma of a-z.
func randText(rng *rand.Rand, n, sigma int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte('a' + rng.Intn(sigma))
	}
	return s
}

// plantEdits returns a copy of s with k random insertions, deletions and
// substitutions over the same alphabet.
func plantEdits(rng *rand.Rand, s []byte, k, sigma int) []byte {
	t := append([]byte(nil), s...)
	for ; k > 0; k-- {
		i := rng.Intn(len(t) + 1)
		c := byte('a' + rng.Intn(sigma))
		switch op := rng.Intn(3); {
		case op == 0 || len(t) == 0 || i == len(t):
			t = append(t[:i], append([]byte{c}, t[i:]...)...)
		case op == 1:
			t = append(t[:i], t[i+1:]...)
		default:
			t[i] = c
		}
	}
	return t
}

// moveItems returns a copy of the ranking p with k items moved: each is
// taken out and put back at a random position.
func moveItems(rng *rand.Rand, p []int, k int) []int {
	q := append([]int(nil), p...)
	for ; k > 0; k-- {
		i := rng.Intn(len(q))
		v := q[i]
		q = append(q[:i], q[i+1:]...)
		j := rng.Intn(len(q) + 1)
		q = append(q[:j], append([]int{v}, q[j:]...)...)
	}
	return q
}

// editPair is one edit-distance input with its exact answer.
type editPair struct {
	a, b  []byte
	exact int
}

func newEditPair(a, b []byte) editPair {
	return editPair{a: a, b: b, exact: editDistance(a, b)}
}
