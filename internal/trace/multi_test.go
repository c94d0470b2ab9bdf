package trace_test

import (
	"fmt"
	"sync"
	"testing"

	"mpcdist/internal/trace"
)

// recorder appends a tagged line per event to a shared log, so tests can
// check fan-out order across the observers of a Multi.
type recorder struct {
	trace.Base
	tag string
	mu  *sync.Mutex
	log *[]string
}

func (r *recorder) record(ev string) {
	r.mu.Lock()
	*r.log = append(*r.log, r.tag+":"+ev)
	r.mu.Unlock()
}

func (r *recorder) RoundStart(ri trace.RoundInfo) { r.record(fmt.Sprintf("start%d", ri.Round)) }
func (r *recorder) MachineEnd(s trace.MachineSpan) {
	r.record(fmt.Sprintf("end%d.%d", s.Round, s.Machine))
}
func (r *recorder) Fault(e trace.FaultEvent)       { r.record(fmt.Sprintf("fault%d.%d", e.Round, e.Machine)) }
func (r *recorder) RoundEnd(rs trace.RoundSummary) { r.record(fmt.Sprintf("finish%d", rs.Round)) }

func TestMultiFiltersNil(t *testing.T) {
	if trace.Multi() != nil {
		t.Error("Multi() != nil")
	}
	if trace.Multi(nil, nil) != nil {
		t.Error("Multi(nil, nil) != nil")
	}
	var mu sync.Mutex
	var log []string
	a := &recorder{tag: "a", mu: &mu, log: &log}
	if got := trace.Multi(nil, a, nil); got != trace.Observer(a) {
		t.Errorf("Multi(nil, a, nil) = %v, want a itself (no wrapper)", got)
	}
}

func TestMultiPreservesOrder(t *testing.T) {
	var mu sync.Mutex
	var log []string
	a := &recorder{tag: "a", mu: &mu, log: &log}
	b := &recorder{tag: "b", mu: &mu, log: &log}
	m := trace.Multi(a, nil, b)

	m.RoundStart(trace.RoundInfo{Round: 0, Phase: trace.PhaseCandidates})
	m.Fault(trace.FaultEvent{Round: 0, Machine: 1})
	m.MachineEnd(trace.MachineSpan{Round: 0, Machine: 1})
	m.RoundEnd(trace.RoundSummary{Round: 0})

	want := []string{
		"a:start0", "b:start0",
		"a:fault0.1", "b:fault0.1",
		"a:end0.1", "b:end0.1",
		"a:finish0", "b:finish0",
	}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log[%d] = %q, want %q (full: %v)", i, log[i], want[i], log)
		}
	}
}

// transportRecorder is a recorder that additionally implements
// trace.TransportObserver.
type transportRecorder struct {
	recorder
}

func (r *transportRecorder) Transport(e trace.TransportEvent) {
	r.record(fmt.Sprintf("transport:%s.%d", e.Kind, e.Party))
}

// TestMultiForwardsTransportEvents is the regression test for the
// transport-event fan-out: a Multi must forward Transport() to every member
// that implements TransportObserver and silently skip members that do not.
// Before the fan-out existed, wrapping a TransportObserver in a Multi
// silently dropped its transport events.
func TestMultiForwardsTransportEvents(t *testing.T) {
	var mu sync.Mutex
	var log []string
	plain := &recorder{tag: "plain", mu: &mu, log: &log}
	a := &transportRecorder{recorder{tag: "a", mu: &mu, log: &log}}
	b := &transportRecorder{recorder{tag: "b", mu: &mu, log: &log}}
	m := trace.Multi(plain, a, b)

	to, ok := m.(trace.TransportObserver)
	if !ok {
		t.Fatal("Multi of TransportObservers does not implement TransportObserver")
	}
	to.Transport(trace.TransportEvent{Kind: trace.TransportReassign, Party: 2})
	to.Transport(trace.TransportEvent{Kind: trace.TransportExchange, Party: -1})

	want := []string{
		"a:transport:reassign.2", "b:transport:reassign.2",
		"a:transport:exchange.-1", "b:transport:exchange.-1",
	}
	mu.Lock()
	defer mu.Unlock()
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v (plain member must not receive transport events)", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log[%d] = %q, want %q", i, log[i], want[i])
		}
	}
}

// TestMultiConcurrentFanOut exercises concurrent MachineEnd/Fault fan-out
// through a Multi from many goroutines; run with -race it proves the
// fan-out path adds no shared mutable state of its own.
func TestMultiConcurrentFanOut(t *testing.T) {
	var mu sync.Mutex
	var log []string
	a := &recorder{tag: "a", mu: &mu, log: &log}
	b := &recorder{tag: "b", mu: &mu, log: &log}
	c := &recorder{tag: "c", mu: &mu, log: &log}
	m := trace.Multi(a, b, c)

	const goroutines, events = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				m.MachineEnd(trace.MachineSpan{Round: 0, Machine: g, Phase: trace.PhaseGraph})
				m.Fault(trace.FaultEvent{Round: 0, Machine: g, Attempt: i})
			}
		}(g)
	}
	wg.Wait()

	if got, want := len(log), goroutines*events*2*3; got != want {
		t.Errorf("events recorded = %d, want %d", got, want)
	}
}
