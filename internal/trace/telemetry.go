package trace

import (
	"sort"
	"sync"
	"time"
)

// Telemetry is the wire form of one party's buffered trace events: the
// payload a worker ships to the coordinator at round barriers and on job
// completion. Every field is exported and every timestamp is an int64
// nanosecond value so the struct travels through internal/transport's
// reflection codec unchanged (time.Time does not).
//
// Timestamps are in the *producing party's* clock. OffsetNs is the
// party's estimate of (coordinator clock - local clock), computed at
// handshake time from the hello/welcome round trip (NTP-style midpoint);
// adding it to any timestamp rebases the event onto the coordinator's
// timeline. The coordinator's own telemetry has OffsetNs == 0.
//
// Telemetry is strictly out-of-band: nothing in it feeds a deterministic
// model counter, and a run's results are bit-identical whether or not it
// is collected or shipped.
type Telemetry struct {
	Party    int
	OffsetNs int64
	Spans    []TeleSpan
	Rounds   []TeleRound
	Faults   []TeleFault
	Events   []TeleTransport
}

// TeleSpan is a MachineSpan flattened for the wire.
type TeleSpan struct {
	Round    int
	Machine  int
	Name     string
	Phase    string
	StartNs  int64
	EndNs    int64
	QueueNs  int64
	Ops      int64
	InWords  int
	OutWords int
	Sends    int
	Fanout   int
}

// TeleRound is a RoundSummary flattened for the wire. StartNs/EndNs are 0
// when no machine ran (pre-flight failure).
type TeleRound struct {
	Round     int
	Name      string
	Phase     string
	Machines  int
	StartNs   int64
	EndNs     int64
	QueueNs   int64
	TotalOps  int64
	CommWords int64
	Failures  int
	Retries   int
	Straggler float64 // RoundSummary.Skew.Straggler
	Err       string
}

// TeleFault is a FaultEvent or RetryEvent flattened for the wire; Retry
// distinguishes the two (a retry's Kind is the fault being recovered).
type TeleFault struct {
	Round   int
	Machine int
	Name    string
	Phase   string
	Kind    string
	Attempt int
	Seq     int
	To      int
	Retry   bool
	AtNs    int64
}

// TeleTransport is a TransportEvent flattened for the wire, plus the
// synthetic "peer-stats" events the coordinator emits at job end (RTTNs
// carries the heartbeat RTT p99 for those).
type TeleTransport struct {
	Kind  string
	Party int
	Seq   int
	IDs   int
	Bytes int64
	RTTNs int64
	AtNs  int64
}

// TransportPeerStats is the Kind of the synthetic per-peer counter events
// synthesized into the transport lane of a merged cluster trace.
const TransportPeerStats = "peer-stats"

func nsOf(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// The wire converters: DrainTelemetry and the flight recorder flatten
// events through these, so a field added to an event reaches both.

func teleSpan(s MachineSpan) TeleSpan {
	return TeleSpan{
		Round: s.Round, Machine: s.Machine, Name: s.Name, Phase: string(s.Phase),
		StartNs: nsOf(s.Start), EndNs: nsOf(s.End), QueueNs: int64(s.QueueWait),
		Ops: s.Ops, InWords: s.InWords, OutWords: s.OutWords,
		Sends: s.Sends, Fanout: s.Fanout,
	}
}

func teleRound(r RoundSummary) TeleRound {
	return TeleRound{
		Round: r.Round, Name: r.Name, Phase: string(r.Phase), Machines: r.Machines,
		StartNs: nsOf(r.Start), EndNs: nsOf(r.End), QueueNs: int64(r.QueueWait),
		TotalOps: r.TotalOps, CommWords: r.CommWords,
		Failures: r.Failures, Retries: r.Retries, Straggler: r.Skew.Straggler, Err: r.Err,
	}
}

func teleFault(e FaultEvent) TeleFault {
	return TeleFault{
		Round: e.Round, Machine: e.Machine, Name: e.Name, Phase: string(e.Phase),
		Kind: string(e.Kind), Attempt: e.Attempt, Seq: e.Seq, To: e.To,
		AtNs: nsOf(e.At),
	}
}

func teleRetry(e RetryEvent) TeleFault {
	return TeleFault{
		Round: e.Round, Machine: e.Machine, Name: e.Name, Phase: string(e.Phase),
		Kind: string(e.Kind), Attempt: e.Attempt, Seq: e.Seq, To: -1, Retry: true,
		AtNs: nsOf(e.At),
	}
}

func teleTransport(e TransportEvent) TeleTransport {
	return TeleTransport{
		Kind: e.Kind, Party: e.Party, Seq: e.Seq, IDs: e.IDs, Bytes: e.Bytes,
		AtNs: nsOf(e.At),
	}
}

// Collector is an Observer that records every event verbatim: the buffer
// behind telemetry shipping and single-process traces (drain it with
// DrainTelemetry, or render it with Trace), and the simplest way to
// assert on the simulator's event stream in tests.
type Collector struct {
	mu         sync.Mutex
	Starts     []RoundInfo
	Spans      []MachineSpan
	Faults     []FaultEvent
	Retries    []RetryEvent
	Summaries  []RoundSummary
	Transports []TransportEvent
}

func (c *Collector) RoundStart(r RoundInfo) {
	c.mu.Lock()
	c.Starts = append(c.Starts, r)
	c.mu.Unlock()
}

func (c *Collector) MachineEnd(s MachineSpan) {
	c.mu.Lock()
	c.Spans = append(c.Spans, s)
	c.mu.Unlock()
}

func (c *Collector) Fault(e FaultEvent) {
	c.mu.Lock()
	c.Faults = append(c.Faults, e)
	c.mu.Unlock()
}

func (c *Collector) Retry(e RetryEvent) {
	c.mu.Lock()
	c.Retries = append(c.Retries, e)
	c.mu.Unlock()
}

func (c *Collector) RoundEnd(r RoundSummary) {
	c.mu.Lock()
	c.Summaries = append(c.Summaries, r)
	c.mu.Unlock()
}

// Transport implements TransportObserver, buffering transport-level events
// alongside the simulator's own.
func (c *Collector) Transport(e TransportEvent) {
	c.mu.Lock()
	c.Transports = append(c.Transports, e)
	c.mu.Unlock()
}

// DrainTelemetry moves the collector's buffered events into a wire
// Telemetry and clears every buffer, so successive drains ship disjoint
// batches and a long-lived collector retains nothing between them. Spans
// marked Remote are skipped (they are another party's work, replayed
// locally; that party ships them itself). The second result is false when
// there was nothing to ship. Party and OffsetNs are left zero — the
// transport stamps them at send time.
func (c *Collector) DrainTelemetry() (Telemetry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t Telemetry
	for _, s := range c.Spans {
		if !s.Remote {
			t.Spans = append(t.Spans, teleSpan(s))
		}
	}
	for _, r := range c.Summaries {
		t.Rounds = append(t.Rounds, teleRound(r))
	}
	for _, f := range c.Faults {
		t.Faults = append(t.Faults, teleFault(f))
	}
	for _, r := range c.Retries {
		t.Faults = append(t.Faults, teleRetry(r))
	}
	for _, e := range c.Transports {
		t.Events = append(t.Events, teleTransport(e))
	}
	c.Starts, c.Spans, c.Summaries, c.Faults, c.Retries, c.Transports = nil, nil, nil, nil, nil, nil
	empty := len(t.Spans) == 0 && len(t.Rounds) == 0 && len(t.Faults) == 0 && len(t.Events) == 0
	return t, !empty
}

// MergeTelemetry coalesces batches by party: a worker that flushed at
// several round barriers produced several Telemetry values, which merge
// into one per party (slices append in arrival order; the first batch's
// OffsetNs wins — the offset is a per-handshake constant). The result is
// sorted by party.
func MergeTelemetry(batches []Telemetry) []Telemetry {
	byParty := map[int]*Telemetry{}
	var order []int
	for _, b := range batches {
		m, ok := byParty[b.Party]
		if !ok {
			cp := Telemetry{Party: b.Party, OffsetNs: b.OffsetNs}
			byParty[b.Party] = &cp
			m = &cp
			order = append(order, b.Party)
		}
		m.Spans = append(m.Spans, b.Spans...)
		m.Rounds = append(m.Rounds, b.Rounds...)
		m.Faults = append(m.Faults, b.Faults...)
		m.Events = append(m.Events, b.Events...)
	}
	sort.Ints(order)
	out := make([]Telemetry, 0, len(order))
	for _, p := range order {
		out = append(out, *byParty[p])
	}
	return out
}
