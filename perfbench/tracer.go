package main

import (
	"sync"
	"sync/atomic"
	"time"

	"mpcdist/internal/trace"
)

// roundRec is one simulated round as the coordinating process saw it:
// the instants at which the round's boundary events reached the tracer,
// plus the execution window of the machines this process ran itself.
type roundRec struct {
	start      time.Time // RoundStart callback
	end        time.Time // RoundEnd callback
	saveAt     time.Time // checkpoint save instant; zero when not saved
	resumeAt   time.Time // checkpoint resume instant; zero when executed
	firstLocal time.Time // earliest start of a machine run by this process
	lastLocal  time.Time // latest end of such a machine
}

// last is the round's final instant: its checkpoint save, or its end.
func (r roundRec) last() time.Time {
	if r.saveAt.After(r.end) {
		return r.saveAt
	}
	return r.end
}

// jobTrace is everything the tracer collected during one job.
type jobTrace struct {
	rounds []roundRec
	busy   map[trace.Phase]time.Duration // summed machine spans by phase
	sends  int64                         // messages the spans emitted
	queue  time.Duration                 // machines' summed slot waits
	saves  int
	events int64 // observer callbacks received
}

// tracer is the benchmark's own trace.Observer, also receiving checkpoint
// and transport events. It records one job at a time: take returns the
// job's record and starts the next. Machine callbacks arrive concurrently
// from the simulator's machine goroutines; round callbacks come from the
// driving goroutine, one round after another, so the round in progress is
// always the last one recorded.
type tracer struct {
	events atomic.Int64
	mu     sync.Mutex
	job    jobTrace
}

func newTracer() *tracer {
	return &tracer{job: jobTrace{busy: map[trace.Phase]time.Duration{}}}
}

// take returns the current job's record and resets the tracer.
func (t *tracer) take() jobTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	j := t.job
	j.events = t.events.Swap(0)
	t.job = jobTrace{busy: map[trace.Phase]time.Duration{}}
	return j
}

// cur returns the round in progress; callers hold mu. A stray event before
// any round (none is expected) gets a scratch record.
func (t *tracer) cur() *roundRec {
	if len(t.job.rounds) == 0 {
		t.job.rounds = append(t.job.rounds, roundRec{})
	}
	return &t.job.rounds[len(t.job.rounds)-1]
}

func (t *tracer) RoundStart(trace.RoundInfo) {
	now := time.Now()
	t.events.Add(1)
	t.mu.Lock()
	t.job.rounds = append(t.job.rounds, roundRec{start: now})
	t.mu.Unlock()
}

func (t *tracer) MachineStart(_, _, _ int) { t.events.Add(1) }

func (t *tracer) MachineEnd(s trace.MachineSpan) {
	// Every message a machine emits reaches Message once, so the span's
	// send count stands in for those callbacks: the per-message hook
	// stays empty and the tracer costs the hot path nothing.
	t.events.Add(1 + int64(s.Sends))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.job.busy[s.Phase] += s.Duration()
	t.job.sends += int64(s.Sends)
	if s.Remote {
		return // ran on another party; its clock is only rebased here
	}
	r := t.cur()
	if r.firstLocal.IsZero() || s.Start.Before(r.firstLocal) {
		r.firstLocal = s.Start
	}
	if s.End.After(r.lastLocal) {
		r.lastLocal = s.End
	}
}

func (t *tracer) Message(_, _, _, _ int) {}

func (t *tracer) Fault(trace.FaultEvent) { t.events.Add(1) }

func (t *tracer) Retry(trace.RetryEvent) { t.events.Add(1) }

func (t *tracer) RoundEnd(s trace.RoundSummary) {
	now := time.Now()
	t.events.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur().end = now
	t.job.queue += s.QueueWait
}

func (t *tracer) Checkpoint(e trace.CheckpointEvent) {
	t.events.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.Kind == trace.CheckpointSave {
		t.cur().saveAt = e.At
		t.job.saves++
	} else {
		t.cur().resumeAt = e.At
	}
}

func (t *tracer) Transport(trace.TransportEvent) { t.events.Add(1) }

// layerSplit partitions one job's wall time across the layers. The parts
// add up to the wall time exactly: core.driver is what remains after the
// rounds (and, on a cluster, the session's dispatch) are taken out.
type layerSplit struct {
	dispatch time.Duration // dist: Session.Run outside the first..last round events
	driver   time.Duration // core: ladder and partition work between rounds
	round    time.Duration // mpc: summed round walls, split below
	exec     time.Duration // kernel: local execution windows
	exchange time.Duration // transport: last local machine end to round end
	save     time.Duration // checkpoint: round end to its save instant
	resume   time.Duration // checkpoint: round start to its resume instant
	overhead time.Duration // mpc: the rest of the round walls
	resumes  int           // rounds fast-forwarded from the store
}

// splitJob computes a job's self times. wall is the job's measured wall
// time. On a session job (session true) the time before the first round
// starts and after the last one ends is the session's dispatch: spec
// broadcast, the final flush and the workers' result digests. On a library
// call the same time is the driver's own set-up and is charged to core.
//
// Within a round, the machines this process ran give the execution
// window; from its end to the round's end the coordinator waits for the
// exchange and shuffles (in-process that is the in-memory shuffle); the
// save instant closes a checkpointed round. A round with no local machine
// is all exchange wait. A resumed round's time up to its resume instant is
// the store read.
func splitJob(wall time.Duration, rounds []roundRec, session bool) layerSplit {
	var s layerSplit
	for _, r := range rounds {
		w := r.last().Sub(r.start)
		s.round += w
		var exec, exchange, save, resume time.Duration
		if !r.resumeAt.IsZero() {
			resume = r.resumeAt.Sub(r.start)
			s.resumes++
		} else {
			anchor := r.start
			if !r.lastLocal.IsZero() {
				exec = r.lastLocal.Sub(r.firstLocal)
				anchor = r.lastLocal
			}
			exchange = r.end.Sub(anchor)
			if !r.saveAt.IsZero() {
				save = r.saveAt.Sub(r.end)
			}
		}
		s.exec += exec
		s.exchange += exchange
		s.save += save
		s.resume += resume
		s.overhead += w - exec - exchange - save - resume
	}
	inside := s.round
	if session && len(rounds) > 0 {
		envelope := rounds[len(rounds)-1].last().Sub(rounds[0].start)
		s.dispatch = wall - envelope
		inside = s.round + s.dispatch
	}
	s.driver = wall - inside
	return s
}

// add returns the component-wise sum of two splits.
func (s layerSplit) add(o layerSplit) layerSplit {
	return layerSplit{
		dispatch: s.dispatch + o.dispatch,
		driver:   s.driver + o.driver,
		round:    s.round + o.round,
		exec:     s.exec + o.exec,
		exchange: s.exchange + o.exchange,
		save:     s.save + o.save,
		resume:   s.resume + o.resume,
		overhead: s.overhead + o.overhead,
		resumes:  s.resumes + o.resumes,
	}
}
