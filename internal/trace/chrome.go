package trace

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// chromeEvent is one trace event in Chrome's JSON schema (the format
// Perfetto and chrome://tracing load). Cat carries the round's paper phase
// as the event category, so Perfetto's category filter isolates one phase
// across every machine track.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`            // microseconds since trace epoch
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// roundsTrack is the tid of the per-round summary track; machine m renders
// on tid m+1 so machine ids (which start at 0) never collide with it.
const roundsTrack = 0

// Trace drains the collector and renders what it held as a one-party
// trace (party 0). Single-process runs — mpcdist and mpctable -trace, the
// server's ?trace=1 — export through it, so their traces have the same
// layout as a distributed run's coordinator lane.
func (c *Collector) Trace() *ClusterTrace {
	t, _ := c.DrainTelemetry()
	return BuildClusterTrace([]Telemetry{t})
}

// ClusterTrace is a Chrome trace-event file assembled from the telemetry
// of every party in a run — one party for an in-process run, the
// coordinator plus its workers for a distributed one. Build it with
// BuildClusterTrace or Collector.Trace; render it with JSON or WriteTo.
type ClusterTrace struct {
	file chromeFile
}

// BuildClusterTrace merges per-party telemetry into one Chrome trace-event
// file: one process lane per party (pid = party index; party 0 is the
// coordinator, or the only party of an in-process run). Inside a lane,
// tid 0 is the rounds track and machine m is tid m+1; every round and
// machine span takes its paper phase as the event category, and faults
// and retries are instants on the machine's track. When there are
// transport events, one extra "transport" process lane holds them on one
// track per peer.
//
// Every timestamp is rebased onto the coordinator's clock via the party's
// OffsetNs before the common epoch (the earliest rebased event) is
// subtracted, so lanes from different processes line up on one timeline.
// The hello/welcome midpoint estimate is typically accurate to well under
// a millisecond on one host; see docs/OBSERVABILITY.md for caveats. Events
// are sorted (pid, metadata first, tid, ts, name), so the output does not
// depend on the goroutine interleaving that produced them.
func BuildClusterTrace(parties []Telemetry) *ClusterTrace {
	parties = MergeTelemetry(parties)

	// Epoch: the earliest rebased timestamp across every party.
	var epoch int64
	seenAny := false
	observe := func(ns, off int64) {
		if ns == 0 {
			return
		}
		if v := ns + off; !seenAny || v < epoch {
			epoch, seenAny = v, true
		}
	}
	maxParty := 0
	for _, p := range parties {
		if p.Party > maxParty {
			maxParty = p.Party
		}
		for _, s := range p.Spans {
			observe(s.StartNs, p.OffsetNs)
		}
		for _, r := range p.Rounds {
			observe(r.StartNs, p.OffsetNs)
		}
		for _, f := range p.Faults {
			observe(f.AtNs, p.OffsetNs)
		}
		for _, e := range p.Events {
			observe(e.AtNs, p.OffsetNs)
		}
	}
	transportPid := maxParty + 1

	us := func(ns, off int64) float64 {
		if ns == 0 {
			return 0
		}
		return float64(ns+off-epoch) / 1e3
	}

	type track struct{ pid, tid int }
	seen := map[track]bool{}
	procs := map[int]bool{}
	var events []chromeEvent
	meta := func(pid, tid int, name string) {
		if seen[track{pid, tid}] {
			return
		}
		seen[track{pid, tid}] = true
		events = append(events,
			chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": name}},
			chromeEvent{Name: "thread_sort_index", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"sort_index": tid}})
	}
	proc := func(pid int, name string) {
		if procs[pid] {
			return
		}
		procs[pid] = true
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name}})
	}
	partyName := func(p int) string {
		if p == 0 {
			return "coordinator (party 0)"
		}
		return "worker (party " + strconv.Itoa(p) + ")"
	}

	for _, p := range parties {
		pid, off := p.Party, p.OffsetNs
		proc(pid, partyName(p.Party))
		for _, r := range p.Rounds {
			meta(pid, roundsTrack, "rounds")
			args := map[string]any{
				"round":       r.Round,
				"phase":       r.Phase,
				"machines":    r.Machines,
				"totalOps":    r.TotalOps,
				"commWords":   r.CommWords,
				"queueWaitUs": r.QueueNs / 1e3,
				"straggler":   r.Straggler,
				"party":       p.Party,
			}
			// Fault counters appear only when nonzero, so fault-free
			// traces carry none.
			if r.Failures > 0 {
				args["failures"] = r.Failures
			}
			if r.Retries > 0 {
				args["retries"] = r.Retries
			}
			if r.Err != "" {
				args["error"] = r.Err
			}
			ev := chromeEvent{Name: r.Name, Cat: r.Phase, Ph: "X", Pid: pid, Tid: roundsTrack,
				Ts: us(r.StartNs, off), Dur: float64(r.EndNs-r.StartNs) / 1e3, Args: args}
			if r.StartNs == 0 || r.EndNs < r.StartNs {
				// No machine ran (pre-flight failure), or the round is still
				// open (a flight-recorder dump taken mid-round): an instant
				// keeps it visible without a negative duration.
				ev.Ph, ev.Dur = "i", 0
			}
			events = append(events, ev)
		}
		for _, s := range p.Spans {
			meta(pid, s.Machine+1, "machine "+strconv.Itoa(s.Machine))
			events = append(events, chromeEvent{
				Name: s.Name, Cat: s.Phase, Ph: "X", Pid: pid, Tid: s.Machine + 1,
				Ts: us(s.StartNs, off), Dur: float64(s.EndNs-s.StartNs) / 1e3,
				Args: map[string]any{
					"round":       s.Round,
					"phase":       s.Phase,
					"ops":         s.Ops,
					"inWords":     s.InWords,
					"outWords":    s.OutWords,
					"sends":       s.Sends,
					"fanout":      s.Fanout,
					"queueWaitUs": s.QueueNs / 1e3,
					"party":       p.Party,
				},
			})
		}
		for _, f := range p.Faults {
			meta(pid, f.Machine+1, "machine "+strconv.Itoa(f.Machine))
			name := EventFault
			if f.Retry {
				name = EventRetry
			}
			args := map[string]any{
				"round":   f.Round,
				"kind":    f.Kind,
				"attempt": f.Attempt,
			}
			if f.Seq >= 0 {
				args["seq"] = f.Seq
			}
			if !f.Retry && f.To >= 0 {
				args["to"] = f.To
			}
			events = append(events, chromeEvent{
				Name: name, Cat: "fault", Ph: "i", Pid: pid, Tid: f.Machine + 1,
				Ts: us(f.AtNs, off), Args: args,
			})
		}
		for _, e := range p.Events {
			// Transport events render on the dedicated transport lane: one
			// track per remote peer, plus a session track for events not
			// tied to a peer.
			tid := 0
			tname := "session"
			if e.Party > 0 {
				tid = e.Party
				tname = "peer " + strconv.Itoa(e.Party)
			}
			proc(transportPid, "transport")
			meta(transportPid, tid, tname)
			args := map[string]any{
				"kind":  e.Kind,
				"party": e.Party,
				"bytes": e.Bytes,
			}
			if e.Seq > 0 {
				args["seq"] = e.Seq
			}
			if e.IDs > 0 {
				args["machines"] = e.IDs
			}
			if e.RTTNs > 0 {
				args["rttP99Us"] = e.RTTNs / 1e3
			}
			events = append(events, chromeEvent{
				Name: e.Kind, Cat: "transport", Ph: "i", Pid: transportPid, Tid: tid,
				Ts: us(e.AtNs, off), Args: args,
			})
		}
	}

	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		am, bm := a.Ph == "M", b.Ph == "M"
		if am != bm {
			return am
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		return a.Name < b.Name
	})
	return &ClusterTrace{file: chromeFile{TraceEvents: events, DisplayTimeUnit: "ms"}}
}

// Events reports how many events the merged trace holds, metadata included.
func (t *ClusterTrace) Events() int { return len(t.file.TraceEvents) }

// JSON renders the trace as a Chrome trace-event file.
func (t *ClusterTrace) JSON() ([]byte, error) { return json.Marshal(t.file) }

// WriteTo writes the trace to w, indented, since the files are meant to be
// opened and occasionally read by humans.
func (t *ClusterTrace) WriteTo(w io.Writer) (int64, error) {
	buf, err := json.MarshalIndent(t.file, "", " ")
	if err != nil {
		return 0, err
	}
	n, err := w.Write(buf)
	return int64(n), err
}
