package main

import (
	"math/rand"
	"testing"
	"time"

	"mpcdist"
	"mpcdist/internal/trace"
)

var t0 = time.Unix(1000, 0)

func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

func TestSplitJobLibrary(t *testing.T) {
	rounds := []roundRec{
		// Machines run 2..8, the shuffle ends the round at 10.
		{start: at(1), firstLocal: at(2), lastLocal: at(8), end: at(10)},
		// A round whose machines all ran elsewhere: all exchange wait.
		{start: at(12), end: at(15)},
	}
	s := splitJob(20*time.Millisecond, rounds, false)
	want := layerSplit{
		driver:   8 * time.Millisecond, // the 20ms wall minus 12ms of rounds
		round:    12 * time.Millisecond,
		exec:     6 * time.Millisecond,
		exchange: 5 * time.Millisecond,
		overhead: 1 * time.Millisecond, // 1..2 pre-flight
	}
	if s != want {
		t.Errorf("split = %+v, want %+v", s, want)
	}
	if sum := s.driver + s.exec + s.exchange + s.overhead + s.save + s.resume + s.dispatch; sum != 20*time.Millisecond {
		t.Errorf("parts sum to %v, want the 20ms wall", sum)
	}
}

func TestSplitJobSession(t *testing.T) {
	rounds := []roundRec{
		{start: at(5), firstLocal: at(6), lastLocal: at(9), end: at(12), saveAt: at(14)},
		{start: at(15), resumeAt: at(17), end: at(18)},
	}
	s := splitJob(25*time.Millisecond, rounds, true)
	want := layerSplit{
		dispatch: 12 * time.Millisecond, // 25ms wall outside the 5..18 envelope
		driver:   1 * time.Millisecond,  // the 14..15 gap between rounds
		round:    12 * time.Millisecond,
		exec:     3 * time.Millisecond,
		exchange: 3 * time.Millisecond,
		save:     2 * time.Millisecond,
		resume:   2 * time.Millisecond,
		overhead: 2 * time.Millisecond, // 5..6 pre-flight, 17..18 after the resume
		resumes:  1,
	}
	if s != want {
		t.Errorf("split = %+v, want %+v", s, want)
	}
	sum := s.dispatch + s.driver + s.exec + s.exchange + s.save + s.resume + s.overhead
	if sum != 25*time.Millisecond {
		t.Errorf("parts sum to %v, want the 25ms wall", sum)
	}
}

func TestTracerRecordsRounds(t *testing.T) {
	tr := newTracer()
	tr.RoundStart(trace.RoundInfo{})
	tr.MachineStart(0, 0, 1)
	tr.MachineEnd(trace.MachineSpan{Phase: trace.PhaseGraph, Start: at(2), End: at(5), Sends: 3})
	tr.MachineEnd(trace.MachineSpan{Phase: trace.PhaseGraph, Start: at(1), End: at(4), Sends: 1})
	tr.MachineEnd(trace.MachineSpan{Phase: trace.PhaseChain, Start: at(0), End: at(9), Remote: true})
	tr.RoundEnd(trace.RoundSummary{QueueWait: time.Millisecond})
	tr.Checkpoint(trace.CheckpointEvent{Kind: trace.CheckpointSave, At: at(20)})
	j := tr.take()
	if len(j.rounds) != 1 {
		t.Fatalf("got %d rounds, want 1", len(j.rounds))
	}
	r := j.rounds[0]
	if !r.firstLocal.Equal(at(1)) || !r.lastLocal.Equal(at(5)) {
		t.Errorf("local window %v..%v, want the local spans' 1..5ms (remote span ignored)", r.firstLocal.Sub(t0), r.lastLocal.Sub(t0))
	}
	if !r.saveAt.Equal(at(20)) || j.saves != 1 {
		t.Errorf("save at %v (%d saves), want 20ms (1)", r.saveAt.Sub(t0), j.saves)
	}
	if j.busy[trace.PhaseGraph] != 6*time.Millisecond || j.busy[trace.PhaseChain] != 9*time.Millisecond {
		t.Errorf("busy = %v", j.busy)
	}
	if j.sends != 4 || j.queue != time.Millisecond {
		t.Errorf("sends %d queue %v, want 4 and 1ms", j.sends, j.queue)
	}
	// RoundStart, MachineStart, 3 MachineEnds with 4 messages, RoundEnd,
	// Checkpoint.
	if j.events != 11 {
		t.Errorf("events = %d, want 11", j.events)
	}
	if again := tr.take(); len(again.rounds) != 0 || again.events != 0 {
		t.Errorf("take did not reset the tracer: %+v", again)
	}
}

// TestTracerOnRealJob attaches the tracer to a real MPC run, whose machine
// goroutines call it concurrently (run with -race), and checks that the
// split accounts for the job's wall time.
func TestTracerOnRealJob(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := rng.Perm(128)
	b := moveItems(rng, a, 12)
	tr := newTracer()
	start := time.Now()
	res, err := mpcdist.UlamDistanceMPC(a, b, mpcdist.MPCParams{X: rankX, Seed: 1, Parallelism: 4, Observer: tr})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	j := tr.take()
	if len(j.rounds) != len(res.Report.Rounds) {
		t.Fatalf("tracer saw %d rounds, the report has %d", len(j.rounds), len(res.Report.Rounds))
	}
	if j.sends == 0 || j.events == 0 {
		t.Errorf("no messages or events recorded: %+v", j)
	}
	s := splitJob(wall, j.rounds, false)
	if s.exec <= 0 || s.round > wall || s.driver < 0 {
		t.Errorf("implausible split %+v of a %v job", s, wall)
	}
	if sum := s.driver + s.exec + s.exchange + s.overhead; sum != wall {
		t.Errorf("split sums to %v, want the %v wall", sum, wall)
	}
}
