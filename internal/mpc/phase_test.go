package mpc

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"mpcdist/internal/trace"
)

// eventCounter counts every observer callback, to prove that rejected
// rounds never reach the observer.
type eventCounter struct {
	events atomic.Int64
}

func (e *eventCounter) RoundStart(trace.RoundInfo)   { e.events.Add(1) }
func (e *eventCounter) MachineEnd(trace.MachineSpan) { e.events.Add(1) }
func (e *eventCounter) Fault(trace.FaultEvent)       { e.events.Add(1) }
func (e *eventCounter) Retry(trace.RetryEvent)       { e.events.Add(1) }
func (e *eventCounter) RoundEnd(trace.RoundSummary)  { e.events.Add(1) }

func TestRunRejectsUnphasedRound(t *testing.T) {
	for _, phase := range []trace.Phase{"", "warmup", "CANDIDATES"} {
		obs := &eventCounter{}
		c := NewCluster(Config{Observer: obs})
		in := map[int][]Payload{0: {Int(1)}}
		_, err := c.Run("r", phase, in, func(x *Ctx, in []Payload) { x.Ops(1) })
		if err == nil {
			t.Fatalf("phase %q: round accepted", phase)
		}
		if !strings.Contains(err.Error(), "invalid phase") {
			t.Errorf("phase %q: error %q does not mention the phase", phase, err)
		}
		if got := obs.events.Load(); got != 0 {
			t.Errorf("phase %q: %d events reached the observer, want 0", phase, got)
		}
		if rep := c.Report(); rep.NumRounds != 0 {
			t.Errorf("phase %q: rejected round entered the history (%d rounds)", phase, rep.NumRounds)
		}
	}
}

func TestRunRecordsPhase(t *testing.T) {
	c := NewCluster(Config{})
	in := map[int][]Payload{0: {Int(1)}}
	var err error
	for _, ph := range trace.AllPhases() {
		in, err = c.Run("r/"+string(ph), ph, in, func(x *Ctx, in []Payload) {
			x.Ops(1)
			x.Send(x.Machine, Int(1))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rep := c.Report()
	for i, ph := range trace.AllPhases() {
		if rep.Rounds[i].Phase != ph {
			t.Errorf("round %d phase = %q, want %q", i, rep.Rounds[i].Phase, ph)
		}
	}
}

// randomReport drives a cluster through a random workload and returns its
// report: random phases, machine counts, op loads, and fan-outs.
func randomReport(t *testing.T, rng *rand.Rand) Report {
	t.Helper()
	c := NewCluster(Config{Seed: rng.Int63()})
	phases := trace.AllPhases()
	rounds := 1 + rng.Intn(7)
	in := make(map[int][]Payload)
	for m := 0; m < 1+rng.Intn(5); m++ {
		in[m] = []Payload{Ints{1, 2, 3}}
	}
	for r := 0; r < rounds; r++ {
		ph := phases[rng.Intn(len(phases))]
		machines := 1 + rng.Intn(6)
		seed := rng.Int63()
		out, err := c.Run("rand", ph, in, func(x *Ctx, in []Payload) {
			lr := rand.New(rand.NewSource(seed + int64(x.Machine)))
			x.Ops(int64(lr.Intn(1000)))
			for s := 0; s < lr.Intn(4); s++ {
				x.Send(lr.Intn(machines), Ints{int(lr.Int31n(100)), 7})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			out = map[int][]Payload{0: {Int(0)}}
		}
		in = out
	}
	return c.Report()
}

// TestProfileConservesRandomized is the conservation property test: on
// randomized workloads the per-phase totals partition the report exactly —
// sums of rounds, ops, comm words, elapsed time match, and maxima of
// machines, memory, straggler match.
func TestProfileConservesRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 50; trial++ {
		rep := randomReport(t, rng)
		prof := Profile(rep)
		if err := prof.Conserves(rep); err != nil {
			t.Fatalf("trial %d: %v\nprofile:\n%s", trial, err, prof)
		}
		// Spot-check the headline totals directly, independent of Conserves.
		var ops, comm int64
		var rounds, mach int
		for _, ps := range prof.Phases {
			ops += ps.TotalOps
			comm += ps.CommWords
			rounds += ps.Rounds
			if ps.MaxMachines > mach {
				mach = ps.MaxMachines
			}
		}
		if ops != rep.TotalOps || comm != rep.CommWords || rounds != rep.NumRounds || mach != rep.MaxMachines {
			t.Fatalf("trial %d: totals ops=%d/%d comm=%d/%d rounds=%d/%d machines=%d/%d",
				trial, ops, rep.TotalOps, comm, rep.CommWords, rounds, rep.NumRounds, mach, rep.MaxMachines)
		}
	}
}

func TestConservesDetectsDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rep := randomReport(t, rng)
	prof := Profile(rep)
	rep.TotalOps++
	if err := prof.Conserves(rep); err == nil {
		t.Error("tampered TotalOps not detected")
	}
	rep.TotalOps--
	rep.NumRounds++
	if err := prof.Conserves(rep); err == nil {
		t.Error("tampered NumRounds not detected")
	}
}

func TestProfileCanonicalOrder(t *testing.T) {
	rep := Report{Rounds: []RoundStats{
		{Name: "a", Phase: trace.PhaseChain, TotalOps: 1},
		{Name: "b", Phase: trace.PhaseCandidates, TotalOps: 2},
		{Name: "c", Phase: trace.PhaseChain, TotalOps: 4},
	}}
	prof := Profile(rep)
	if len(prof.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(prof.Phases))
	}
	if prof.Phases[0].Phase != trace.PhaseCandidates || prof.Phases[1].Phase != trace.PhaseChain {
		t.Errorf("order = %v, want candidates before chain", prof.Phases)
	}
	if prof.Phases[1].TotalOps != 5 || prof.Phases[1].Rounds != 2 {
		t.Errorf("chain stats = %+v, want ops=5 rounds=2", prof.Phases[1])
	}
	if ps, ok := prof.Get(trace.PhaseCandidates); !ok || ps.TotalOps != 2 {
		t.Errorf("Get(candidates) = %+v, %v", ps, ok)
	}
	if _, ok := prof.Get(trace.PhaseGraph); ok {
		t.Error("Get(graph) found a phase that never ran")
	}
}

func TestReportStringIncludesPhases(t *testing.T) {
	c := NewCluster(Config{})
	in := map[int][]Payload{0: {Int(1)}}
	if _, err := c.Run("r", trace.PhaseCandidates, in, func(x *Ctx, in []Payload) { x.Ops(5) }); err != nil {
		t.Fatal(err)
	}
	s := c.Report().String()
	if !strings.Contains(s, "phase=candidates") {
		t.Errorf("Report.String() lacks phase line:\n%s", s)
	}
}
