// Package mpc simulates the massively parallel computation (MPC) model of
// Karloff, Suri, and Vassilvitskii as used by the paper: a fleet of
// machines, each with a hard memory cap of S words, computing in
// synchronous rounds. Within a round a machine sees only its own input;
// between rounds machines exchange messages, and no machine may receive (or
// hold) more than S words.
//
// The simulator enforces the memory cap, counts the model quantities the
// paper's Table 1 is stated in — rounds, machines, per-machine memory,
// total computation, and critical-path ("parallel") computation — and runs
// machines concurrently on the host's cores.
//
// Randomness: machines can draw from a per-machine stream or from a shared
// stream ("a random variable with a common seed between machines",
// Algorithm 6 line 9); both are deterministic given Config.Seed, so
// simulations are reproducible regardless of goroutine scheduling.
//
// Observability: an optional trace.Observer on Config receives round,
// per-machine (spans exclude semaphore queueing), and fault/retry events,
// which internal/trace stores and renders as Chrome trace-event timelines.
// Every cluster also feeds the process-global flight recorder unless
// MPCDIST_FLIGHT=off, so the event sites run with or without an observer.
package mpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"time"

	"mpcdist/internal/fault"
	"mpcdist/internal/stats"
	"mpcdist/internal/trace"
	"mpcdist/internal/transport"
)

// Payload is any unit of data shipped between machines. Words reports its
// memory footprint in machine words; the simulator uses it to enforce the
// per-machine cap.
type Payload interface {
	Words() int
}

// Config parameterizes a Cluster.
type Config struct {
	// MachineWords is the per-machine memory cap S in words. Zero means
	// unlimited (useful in unit tests of the algorithms themselves).
	MachineWords int
	// MaxMachines optionally caps the number of distinct machines usable in
	// a round; zero means unlimited.
	MaxMachines int
	// Parallelism bounds the number of simulated machines executing
	// concurrently; zero means GOMAXPROCS.
	Parallelism int
	// Seed feeds both the shared and the per-machine random streams.
	Seed int64
	// Ctx, when non-nil, cancels the simulation: Run checks it before the
	// round starts, before each machine executes, and before each replay
	// attempt, and every machine's op counter polls it each 64Ki charged
	// ops, abandoning the body mid-computation. So a timed-out or
	// abandoned request stops within a few kernel calls rather than
	// finishing the round, let alone the remaining rounds.
	Ctx context.Context
	// Observer, when non-nil, receives round and machine execution events
	// (see internal/trace). Observers must be safe for concurrent use.
	// The cluster composes the flight recorder behind it (trace.WithFlight),
	// so events are delivered even when Observer is nil.
	Observer trace.Observer
	// Faults, when non-nil and active, injects the plan's deterministic
	// fault schedule into every round: machine crashes (recovered by exact
	// replay — machine execution is a pure function of (seed, round,
	// machine, inputs)), message loss/duplication in the shuffle
	// (recovered by retransmission + receiver-side dedup on per-(round,
	// sender, sequence) message IDs), and straggler delays. A nil or
	// inactive plan takes the fault-free fast path with zero behavioral
	// drift.
	Faults *fault.Plan
	// MaxRetries bounds recovery per machine-round and per message: after
	// the initial attempt, up to MaxRetries replays/retransmissions are
	// made before Run fails with *fault.CrashError or *fault.DropError.
	// Zero means DefaultMaxRetries.
	MaxRetries int
	// Algo names the pipeline this cluster executes ("ulam-mpc",
	// "edit-mpc", ...). It is advisory observability metadata: it becomes
	// the "algo" goroutine profiler label on every simulated machine (see
	// internal/trace.PhaseLabels) and never feeds a counter. Empty is
	// fine; profiles then show algo=unlabeled.
	Algo string
	// Transport, when non-nil, is the shuffle transport the cluster runs
	// over (see internal/transport): machine ids are partitioned across
	// the transport's parties by input weight, each party executes its
	// share, and execution records are all-gathered at a per-round
	// barrier. Nil means the in-process transport (transport.Local) —
	// the single-party fast path, bit-identical to the seed simulator.
	// Every party of a distributed run must construct its cluster with an
	// otherwise-identical Config (same Seed, MachineWords, Faults, ...):
	// the SPMD contract.
	Transport transport.Transport
	// Checkpointer, when non-nil, is consulted at the start of every round
	// (fast-forwarding rounds that completed in a previous run) and handed
	// a snapshot after every completed round (see RoundSnapshot). Nil
	// means no durability — the seed behavior, bit-identical by the
	// determinism invariant either way.
	Checkpointer Checkpointer
}

// DefaultMaxRetries is the recovery budget used when Config.MaxRetries is
// zero.
const DefaultMaxRetries = 3

// RoundStats records the measured model quantities of one round.
type RoundStats struct {
	Name          string
	Phase         trace.Phase // the paper phase the round implements
	Machines      int         // distinct machines that received input
	MaxInWords    int         // max words resident on a machine (input)
	MaxOutWords   int         // max words emitted by a machine
	TotalOps      int64       // sum of ops over machines
	MaxMachineOps int64       // max ops on one machine ("parallel time")
	CommWords     int64       // words shipped between machines after the round
	// Elapsed is the wall time of machine execution only: first machine
	// start to last machine end, with each machine's clock starting after
	// it acquires an execution slot. Semaphore queueing is excluded and
	// accounted separately in QueueWait.
	Elapsed time.Duration
	// QueueWait sums the time machines spent waiting for an execution
	// slot (the host's parallelism limit, not a model quantity).
	QueueWait time.Duration
	// Skew summarizes the per-machine execution-time distribution:
	// max/mean/p99 and the straggler ratio max/mean.
	Skew trace.SkewStats
	// Failures counts faults injected during the round (crashes, message
	// drops/duplications, straggler delays); Retries counts the recovery
	// actions taken (machine replays, message retransmissions). Both are 0
	// without an active fault plan. Faults never perturb the deterministic
	// counters above: only the successful attempt's ops and logical shuffle
	// volume are counted, so a recovered run's stats are bit-identical to
	// the fault-free run's.
	Failures int
	Retries  int
}

// Report aggregates a cluster's history in the shape of a Table 1 row.
type Report struct {
	Rounds      []RoundStats
	NumRounds   int
	MaxMachines int   // max machines used in any round
	MaxWords    int   // max per-machine memory observed in any round
	TotalOps    int64 // total computation across all rounds and machines
	CriticalOps int64 // sum over rounds of the max per-machine ops
	CommWords   int64 // total communication volume (words) across rounds
	// Elapsed sums the rounds' machine-execution wall time; QueueWait sums
	// their semaphore waits (host effects, excluded from Elapsed).
	Elapsed   time.Duration
	QueueWait time.Duration
	// MaxStraggler is the worst per-round straggler ratio (max/mean
	// machine time); 0 when no round recorded machine times.
	MaxStraggler float64
	// Failures and Retries sum the rounds' fault and recovery counters;
	// both 0 on a fault-free cluster.
	Failures int
	Retries  int
	// Workers attributes the cluster's work to the parties of a
	// distributed run, by the deterministic machine assignment; empty on a
	// single-party run. Advisory rows: they are identical on every party
	// (the assignment is), but they are not part of the deterministic
	// result digest.
	Workers []WorkerStats
}

// WorkerStats is one party's share of a distributed run, attributed by
// the deterministic AssignMachines partition — machines reassigned after
// a mid-round loss still count against the party originally assigned
// them, keeping the rows identical on every party regardless of which
// process actually re-executed the work.
type WorkerStats struct {
	Party         int
	MachineRounds int   // machine-round executions assigned to this party
	Ops           int64 // elementary operations across those executions
	CommWords     int64 // words those machines emitted into the shuffle
	// QueueWait sums the machines' slot waits (host-level, advisory).
	QueueWait time.Duration
	Failures  int
	Retries   int
	// WireBytes is the party's connection traffic as seen by the
	// coordinator; filled by internal/dist after a session run, 0
	// otherwise. Advisory.
	WireBytes int64
}

// String renders the report as a summary line followed by one line per
// phase that ran (the Table 1 quantities resolved to paper phases).
func (r Report) String() string {
	s := fmt.Sprintf("rounds=%d machines=%d mem/machine=%d totalOps=%d criticalOps=%d comm=%d elapsed=%s",
		r.NumRounds, r.MaxMachines, r.MaxWords, r.TotalOps, r.CriticalOps, r.CommWords,
		r.Elapsed.Round(time.Microsecond))
	if r.Failures > 0 || r.Retries > 0 {
		s += fmt.Sprintf(" failures=%d retries=%d", r.Failures, r.Retries)
	}
	for _, ps := range Profile(r).Phases {
		s += "\n  " + ps.String()
	}
	for _, w := range r.Workers {
		s += fmt.Sprintf("\n  party %d: machineRounds=%d ops=%d comm=%d queueWait=%s",
			w.Party, w.MachineRounds, w.Ops, w.CommWords, w.QueueWait.Round(time.Microsecond))
		if w.Failures > 0 || w.Retries > 0 {
			s += fmt.Sprintf(" failures=%d retries=%d", w.Failures, w.Retries)
		}
		if w.WireBytes > 0 {
			s += fmt.Sprintf(" wire=%dB", w.WireBytes)
		}
	}
	return s
}

// Cluster is a simulated MPC deployment. The zero value is not usable;
// construct with NewCluster.
type Cluster struct {
	cfg     Config
	obs     trace.Observer // cfg.Observer with the flight recorder composed in
	rounds  []RoundStats
	workers []WorkerStats
}

// NewCluster returns a cluster with the given configuration. The
// process-global flight recorder (trace.Flight) is composed into the
// effective observer here — once, at construction — so every cluster in
// the process feeds the recorder by default; trace.SetFlightEnabled /
// MPCDIST_FLIGHT=off opt out. The recorder is out-of-band: it never
// changes a deterministic counter or the cfg the caller sees via Config().
func NewCluster(cfg Config) *Cluster {
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	return &Cluster{cfg: cfg, obs: trace.WithFlight(cfg.Observer)}
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Report returns the aggregated statistics of all rounds run so far.
func (c *Cluster) Report() Report {
	rep := Report{Rounds: append([]RoundStats(nil), c.rounds...)}
	rep.NumRounds = len(c.rounds)
	for _, r := range c.rounds {
		if r.Machines > rep.MaxMachines {
			rep.MaxMachines = r.Machines
		}
		w := r.MaxInWords
		if r.MaxOutWords > w {
			w = r.MaxOutWords
		}
		if w > rep.MaxWords {
			rep.MaxWords = w
		}
		rep.TotalOps += r.TotalOps
		rep.CriticalOps += r.MaxMachineOps
		rep.CommWords += r.CommWords
		rep.Elapsed += r.Elapsed
		rep.QueueWait += r.QueueWait
		if r.Skew.Straggler > rep.MaxStraggler {
			rep.MaxStraggler = r.Skew.Straggler
		}
		rep.Failures += r.Failures
		rep.Retries += r.Retries
	}
	rep.Workers = append([]WorkerStats(nil), c.workers...)
	return rep
}

// Reset clears the round history but keeps the configuration.
func (c *Cluster) Reset() { c.rounds, c.workers = nil, nil }

// Ctx is the view a machine has of the world during one round: its
// identity, its random streams, an operation counter, and an outbox.
type Ctx struct {
	Machine int
	Round   int

	cluster *Cluster
	phase   trace.Phase
	ops     stats.Ops
	out     []transport.Msg // the outbox; shipped as the record's Msgs
	rng     *rand.Rand

	inWords    int
	start, end time.Time
	queueWait  time.Duration
}

// Counter returns the machine's operation counter, suitable for passing to
// the sequential kernels in editdist/ulam/approx.
func (x *Ctx) Counter() *stats.Ops { return &x.ops }

// Ops charges n elementary operations to the machine.
func (x *Ctx) Ops(n int64) { x.ops.Add(n) }

// Grow makes room in the outbox for n more sends. A body that knows how
// much it will send calls it first, so a large outbox is allocated once
// at its final size instead of being regrown and copied as it fills.
func (x *Ctx) Grow(n int) { x.out = slices.Grow(x.out, n) }

// Send emits a message for delivery at the start of the next round.
func (x *Ctx) Send(to int, data Payload) {
	x.out = append(x.out, transport.Msg{To: to, Data: data})
}

// mix64 is the SplitMix64 finalizer, shared with internal/fault and the
// transport layer through internal/stats so stream derivation cannot drift
// between the coordinator and worker processes.
func mix64(v uint64) uint64 { return stats.Mix64(v) }

// Distinct stream kinds keep the per-machine and shared streams disjoint
// even at coinciding (seed, round) coordinates.
const (
	kindMachine uint64 = 0x6d616368696e6500 // "machine\0"
	kindShared  uint64 = 0x7368617265640000 // "shared\0\0"
)

// streamSeed derives the per-machine stream seed arithmetically — no
// formatting or hashing allocations on the machine execution path.
func streamSeed(seed int64, round, machine int) int64 {
	h := mix64(uint64(seed) ^ kindMachine)
	h = mix64(h ^ uint64(round))
	h = mix64(h ^ uint64(machine))
	return int64(h)
}

// fnvString is FNV-1a over a string without allocating a hash.Hash; tags
// are the only string-keyed part of stream derivation.
func fnvString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// sharedSeed derives the shared-stream seed from (seed, round, tag).
func sharedSeed(seed int64, round int, tag string) int64 {
	h := mix64(uint64(seed) ^ kindShared)
	h = mix64(h ^ uint64(round))
	h = mix64(h ^ fnvString(tag))
	return int64(h)
}

// Rand returns the machine's private random stream, deterministic in
// (seed, round, machine). The stream is created on first use and cached
// for the rest of the round.
func (x *Ctx) Rand() *rand.Rand {
	if x.rng == nil {
		x.rng = rand.New(rand.NewSource(streamSeed(x.cluster.cfg.Seed, x.Round, x.Machine)))
	}
	return x.rng
}

// SharedRand returns a random stream that is identical on every machine for
// a given tag — the "common seed" device of Algorithm 6. Each call returns
// a fresh stream positioned at the start.
func (x *Ctx) SharedRand(tag string) *rand.Rand {
	return x.cluster.SharedRand(x.Round, tag)
}

// SharedRand is the driver-side accessor for the same stream machines see
// through Ctx.SharedRand.
func (c *Cluster) SharedRand(round int, tag string) *rand.Rand {
	return rand.New(rand.NewSource(sharedSeed(c.cfg.Seed, round, tag)))
}

// MachineFunc is the program a machine executes during a round: it reads
// its input payloads and sends messages through the context.
type MachineFunc func(x *Ctx, in []Payload)

// MemoryError reports a violation of the MPC memory or machine-count
// limits.
type MemoryError struct {
	Round   string
	Machine int
	Words   int
	Limit   int
	Kind    string // "input", "output", or "machines"
}

func (e *MemoryError) Error() string {
	if e.Kind == "machines" {
		return fmt.Sprintf("mpc: round %q uses %d machines, limit %d", e.Round, e.Words, e.Limit)
	}
	return fmt.Sprintf("mpc: round %q machine %d %s holds %d words, limit %d",
		e.Round, e.Machine, e.Kind, e.Words, e.Limit)
}

// PayloadWords sums the footprint of a payload slice.
func PayloadWords(in []Payload) int {
	w := 0
	for _, p := range in {
		w += p.Words()
	}
	return w
}

// span assembles the machine's trace span after execution; outbox volume
// and fan-out are computed from the machine's own outbox, so this is safe
// inside the machine goroutine.
func (x *Ctx) span(name string) trace.MachineSpan {
	outWords, fanout := 0, 0
	if len(x.out) <= 32 {
		// Typical outboxes are a handful of messages; a quadratic scan
		// avoids a per-machine map allocation, which dominated the
		// observer's cost on trivial rounds.
		for i, m := range x.out {
			outWords += m.Data.(Payload).Words()
			dup := false
			for j := 0; j < i; j++ {
				if x.out[j].To == m.To {
					dup = true
					break
				}
			}
			if !dup {
				fanout++
			}
		}
	} else {
		seen := make(map[int]struct{}, 32)
		for _, m := range x.out {
			outWords += m.Data.(Payload).Words()
			if _, ok := seen[m.To]; !ok {
				seen[m.To] = struct{}{}
				fanout++
			}
		}
	}
	return trace.MachineSpan{
		Round:     x.Round,
		Name:      name,
		Phase:     x.phase,
		Machine:   x.Machine,
		Start:     x.start,
		End:       x.end,
		QueueWait: x.queueWait,
		Ops:       x.ops.Count(),
		InWords:   x.inWords,
		OutWords:  outWords,
		Sends:     len(x.out),
		Fanout:    fanout,
	}
}

// Run executes one synchronous round: every machine with input runs fn
// concurrently, and the emitted messages are grouped by destination into
// the next round's inputs (returned sorted by machine id for determinism).
// It enforces the per-machine memory cap on inputs and outputs and the
// machine-count cap, returning a *MemoryError on violation.
//
// With an active Config.Faults plan, injected crashes are recovered by
// replaying the machine (up to Config.MaxRetries extra attempts; replay is
// exact because execution is a pure function of (seed, round, machine,
// inputs)) and injected message drops/duplications are recovered by
// retransmission plus receiver-side dedup on (round, sender, sequence)
// message IDs. Exhausting the budget returns *fault.CrashError or
// *fault.DropError. Recovery never perturbs the deterministic counters:
// the returned inputs and the round's TotalOps/CommWords are bit-identical
// to a fault-free run.
//
// phase names the paper phase the round implements; it is validated before
// anything else happens, so a round can never reach the Observer — or the
// round history — without a valid phase label.
func (c *Cluster) Run(name string, phase trace.Phase, inputs map[int][]Payload, fn MachineFunc) (map[int][]Payload, error) {
	if err := trace.CheckPhase(phase); err != nil {
		return nil, fmt.Errorf("mpc: round %q: %w", name, err)
	}
	round := len(c.rounds)
	st := RoundStats{Name: name, Phase: phase, Machines: len(inputs)}
	obs := c.obs
	ctx := c.cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if obs != nil {
		obs.RoundStart(trace.RoundInfo{Round: round, Name: name, Phase: phase, Machines: len(inputs)})
	}
	// fail closes the round for observers on pre-flight and post-run
	// errors, so a violation is visible on a trace, not only in the error.
	// Retry-budget exhaustion additionally fires the flight recorder's
	// auto-dump: the retained window is the post-mortem for it.
	fail := func(err error) error {
		triggerFlightOnExhaustion(err)
		if obs != nil {
			sum := summary(round, &st)
			sum.Err = err.Error()
			obs.RoundEnd(sum)
		}
		return err
	}
	if err := ctx.Err(); err != nil {
		return nil, fail(fmt.Errorf("mpc: round %q cancelled: %w", name, err))
	}
	if ck := c.cfg.Checkpointer; ck != nil {
		snap, err := ck.Resume(round, name, phase)
		if err != nil {
			return nil, fail(fmt.Errorf("mpc: round %q: %w", name, err))
		}
		if snap != nil {
			// Fast-forward: the round completed in a previous run. Restore
			// its stats verbatim and hand back the saved post-shuffle
			// outputs without executing machines or touching the transport
			// — resumed rounds never reach the exchange barrier, so every
			// party of a distributed resume skips them in lockstep and the
			// exchange sequence numbers stay aligned.
			st = snap.Stats
			c.rounds = append(c.rounds, st)
			if obs != nil {
				trace.EmitCheckpoint(obs, trace.CheckpointEvent{Round: round, Name: name,
					Phase: phase, Kind: trace.CheckpointResume, Step: snap.Step, At: time.Now()})
				obs.RoundEnd(summary(round, &st))
			}
			return snap.Next, nil
		}
	}
	if c.cfg.MaxMachines > 0 && len(inputs) > c.cfg.MaxMachines {
		return nil, fail(&MemoryError{Round: name, Words: len(inputs), Limit: c.cfg.MaxMachines, Kind: "machines"})
	}

	ids := make([]int, 0, len(inputs))
	for id := range inputs {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	// Pre-check input residency.
	inWords := make([]int, len(ids))
	for k, id := range ids {
		w := PayloadWords(inputs[id])
		inWords[k] = w
		if w > st.MaxInWords {
			st.MaxInWords = w
		}
		if c.cfg.MachineWords > 0 && w > c.cfg.MachineWords {
			return nil, fail(&MemoryError{Round: name, Machine: id, Words: w, Limit: c.cfg.MachineWords, Kind: "input"})
		}
	}

	plan := c.cfg.Faults
	active := plan.Active()
	maxRetries := c.cfg.MaxRetries
	if maxRetries <= 0 {
		maxRetries = DefaultMaxRetries
	}

	// Partition the round across the transport's parties by input weight.
	// Every party computes the same partition from the same sorted ids —
	// no coordination needed — and executes only its own share; the
	// exchange below restores the full round for everyone.
	tr := c.cfg.Transport
	parties, self := 1, 0
	if tr != nil {
		parties, self = tr.Parties()
	}
	assign := [][]int{ids}
	myIDs := ids
	if parties > 1 {
		assign = AssignMachines(ids, inWords, parties)
		myIDs = assign[self]
	}

	inWordsByID := make(map[int]int, len(ids))
	for k, id := range ids {
		inWordsByID[id] = inWords[k]
	}
	re := &roundExec{
		c: c, ctx: ctx, round: round, name: name, phase: phase, obs: obs,
		inputs: inputs, inWords: inWordsByID, fn: fn, base: time.Now(),
		plan: plan, active: active, maxRetries: maxRetries,
	}
	if trace.PhaseLabelsEnabled() {
		// One label set per round; every machine goroutine of the round
		// (including transport-driven re-executions) runs under it, so CPU
		// profiles attribute samples to {algo, phase, round}.
		re.labels, re.labeled = trace.PhaseLabels(c.cfg.Algo, phase, name), true
	}

	local, err := re.run(myIDs)
	if err != nil {
		return nil, fail(err)
	}
	merged := local
	if tr != nil {
		meta := transport.RoundMeta{Round: round, Name: name, Phase: string(phase)}
		merged, err = tr.Exchange(meta, assign, local, re.run)
		if err != nil {
			return nil, fail(fmt.Errorf("mpc: round %q: %w", name, err))
		}
	}

	// Replay observer events for machines that executed on other parties;
	// in-process machines already fired theirs from inside roundExec. The
	// replayed timestamps are the remote party's offsets rebased onto this
	// party's round clock — advisory, like all wall-clock quantities.
	if obs != nil {
		for _, r := range merged {
			if !r.Remote || !r.Started {
				continue
			}
			obs.MachineEnd(remoteSpan(name, phase, round, r, re.base, inWordsByID[r.Machine]))
		}
	}

	for _, r := range merged {
		st.Failures += r.Failures
		st.Retries += r.Retries
	}

	// Attribute the round's work to parties by the deterministic
	// assignment. Pure function of (assign, merged), both identical on
	// every party, so the rows agree everywhere.
	if parties > 1 {
		if len(c.workers) < parties {
			nw := make([]WorkerStats, parties)
			copy(nw, c.workers)
			for p := range nw {
				nw[p].Party = p
			}
			c.workers = nw
		}
		byID := make(map[int]transport.Record, len(merged))
		for _, r := range merged {
			byID[r.Machine] = r
		}
		for p, idsP := range assign {
			ws := &c.workers[p]
			for _, id := range idsP {
				r, ok := byID[id]
				if !ok {
					continue
				}
				ws.MachineRounds++
				ws.Ops += r.Ops
				ws.QueueWait += time.Duration(r.QueueNs)
				ws.Failures += r.Failures
				ws.Retries += r.Retries
				for _, m := range r.Msgs {
					ws.CommWords += int64(m.Data.(Payload).Words())
				}
			}
		}
	}

	// Execution window and skew over the machines that actually ran.
	var firstNs, lastNs int64
	started := false
	var durs []time.Duration
	for _, r := range merged {
		if !r.Started {
			continue // cancelled before execution
		}
		if !started || r.StartNs < firstNs {
			firstNs = r.StartNs
		}
		if r.EndNs > lastNs {
			lastNs = r.EndNs
		}
		started = true
		st.QueueWait += time.Duration(r.QueueNs)
		durs = append(durs, time.Duration(r.EndNs-r.StartNs))
	}
	if started {
		st.Elapsed = time.Duration(lastNs - firstNs)
	}
	st.Skew = trace.Summarize(durs)

	if err := ctx.Err(); err != nil {
		return nil, fail(fmt.Errorf("mpc: round %q cancelled: %w", name, err))
	}
	for _, r := range merged {
		if r.Crashed {
			// Retry budget exhausted on a machine: the round cannot
			// complete. merged is sorted by machine id, so the reported
			// machine is deterministic — and identical on every party.
			return nil, fail(&fault.CrashError{Round: round, Name: name, Machine: r.Machine, Attempts: r.CrashAttempts})
		}
	}

	// Message IDs are (round, sender, sequence); with an active fault plan
	// the shuffle retransmits dropped messages and the receiver collapses
	// duplicates (and redundant retransmissions) by ID, keeping the first
	// copy. Senders are walked in sorted-id order and outboxes in sequence
	// order, so delivery order — and therefore every downstream machine's
	// input — is bit-identical to the fault-free path. All decisions are
	// pure functions of the plan and the merged records, so every party of
	// a distributed run computes the identical shuffle.
	type msgID struct{ from, seq int }
	var seen map[int]map[msgID]bool
	if active {
		seen = make(map[int]map[msgID]bool)
	}
	deliver := func(next map[int][]Payload, to, from, seq int, data Payload) {
		id := msgID{from, seq}
		dst := seen[to]
		if dst == nil {
			dst = make(map[msgID]bool)
			seen[to] = dst
		}
		if dst[id] {
			return // duplicate detected by message ID
		}
		dst[id] = true
		next[to] = append(next[to], data)
	}

	next := make(map[int][]Payload)
	var firstErr error
	for _, r := range merged {
		st.TotalOps += r.Ops
		if r.Ops > st.MaxMachineOps {
			st.MaxMachineOps = r.Ops
		}
		w := 0
		for _, m := range r.Msgs {
			w += m.Data.(Payload).Words()
		}
		// CommWords is the logical shuffle volume — retransmissions and
		// duplicates are host-level recovery, not model communication — so
		// the deterministic counters match the fault-free run exactly.
		st.CommWords += int64(w)
		if w > st.MaxOutWords {
			st.MaxOutWords = w
		}
		if c.cfg.MachineWords > 0 && w > c.cfg.MachineWords && firstErr == nil {
			firstErr = &MemoryError{Round: name, Machine: r.Machine, Words: w, Limit: c.cfg.MachineWords, Kind: "output"}
		}
		if !active {
			continue
		}
		for seq, m := range r.Msgs {
			delivered := false
			for attempt := 0; ; attempt++ {
				if plan.DropMsg(round, r.Machine, seq, attempt) {
					st.Failures++
					if obs != nil {
						obs.Fault(trace.FaultEvent{Round: round, Name: name, Phase: phase, Machine: r.Machine,
							Kind: trace.FaultMsgDrop, Attempt: attempt, Seq: seq, To: m.To, At: time.Now()})
					}
					if attempt >= maxRetries {
						if firstErr == nil {
							firstErr = &fault.DropError{Round: round, Name: name,
								From: r.Machine, To: m.To, Seq: seq, Attempts: attempt + 1}
						}
						break
					}
					st.Retries++
					if obs != nil {
						obs.Retry(trace.RetryEvent{Round: round, Name: name, Phase: phase, Machine: r.Machine,
							Kind: trace.FaultMsgDrop, Attempt: attempt + 1, Seq: seq, At: time.Now()})
					}
					continue
				}
				delivered = true
				if plan.DupMsg(round, r.Machine, seq, attempt) {
					st.Failures++
					if obs != nil {
						obs.Fault(trace.FaultEvent{Round: round, Name: name, Phase: phase, Machine: r.Machine,
							Kind: trace.FaultMsgDup, Attempt: attempt, Seq: seq, To: m.To, At: time.Now()})
					}
					// The duplicate goes through the same delivery path and
					// is caught by the receiver's ID dedup.
					deliver(next, m.To, r.Machine, seq, m.Data.(Payload))
				}
				break
			}
			if delivered {
				deliver(next, m.To, r.Machine, seq, m.Data.(Payload))
			}
		}
	}
	if !active {
		next = shuffle(merged)
	}
	c.rounds = append(c.rounds, st)
	if obs != nil {
		sum := summary(round, &st)
		if started {
			sum.Start, sum.End = re.base.Add(time.Duration(firstNs)), re.base.Add(time.Duration(lastNs))
		}
		if firstErr != nil {
			sum.Err = firstErr.Error()
		}
		obs.RoundEnd(sum)
	}
	if firstErr != nil {
		triggerFlightOnExhaustion(firstErr)
		return nil, firstErr
	}
	if ck := c.cfg.Checkpointer; ck != nil {
		snap := &RoundSnapshot{Round: round, Name: name, Phase: phase, Stats: st, Next: next}
		if err := ck.Save(snap); err != nil {
			// The observer already saw the round close successfully; the
			// save failure is the job's error, not the round's.
			return nil, fmt.Errorf("mpc: round %q: checkpoint save: %w", name, err)
		}
		if obs != nil {
			trace.EmitCheckpoint(obs, trace.CheckpointEvent{Round: round, Name: name,
				Phase: phase, Kind: trace.CheckpointSave, Step: snap.Step, At: time.Now()})
		}
	}
	return next, nil
}

// shuffle delivers a fault-free round's messages: a counting sort by
// destination that allocates each inbox once at its final size, then fills
// it in sender-id, then outbox, order. Consecutive messages mostly share a
// destination, so the destination's slot is looked up only when it
// changes. It consumes merged: every record's Msgs is cleared.
func shuffle(merged []transport.Record) map[int][]Payload {
	slot := make(map[int]int)
	var dests, counts []int
	last, li := 0, -1
	for _, r := range merged {
		for _, m := range r.Msgs {
			if li < 0 || m.To != last {
				i, ok := slot[m.To]
				if !ok {
					i = len(dests)
					slot[m.To] = i
					dests = append(dests, m.To)
					counts = append(counts, 0)
				}
				last, li = m.To, i
			}
			counts[li]++
		}
	}
	inboxes := make([][]Payload, len(dests))
	li = -1
	for k := range merged {
		for _, m := range merged[k].Msgs {
			if li < 0 || m.To != last {
				last, li = m.To, slot[m.To]
			}
			if inboxes[li] == nil {
				// One spare slot: drivers add a payload of their own (a
				// job, a machine's state) to some inboxes between rounds,
				// which would otherwise copy the whole inbox.
				inboxes[li] = make([]Payload, 0, counts[li]+1)
			}
			inboxes[li] = append(inboxes[li], m.Data.(Payload))
		}
		// The outbox is spent: the GC may reclaim it while later inboxes
		// are still being filled, so a round's outboxes and inboxes need
		// not all be resident at once.
		merged[k].Msgs = nil
	}
	next := make(map[int][]Payload, len(dests))
	for i, to := range dests {
		next[to] = inboxes[i]
	}
	return next
}

// triggerFlightOnExhaustion fires the flight recorder's auto-dump when a
// round failed because a machine or message exhausted its recovery budget
// — the failures the recorder's retained window exists to explain. Other
// errors (memory violations, cancellation) are deterministic and
// reproducible, so they don't warrant a dump.
func triggerFlightOnExhaustion(err error) {
	var ce *fault.CrashError
	var de *fault.DropError
	if errors.As(err, &ce) || errors.As(err, &de) {
		trace.FlightTrigger("mpc: " + err.Error())
	}
}

// roundExec binds one round's immutable context — inputs, seed streams,
// fault plan, observer — into a closure that can execute any subset of the
// round's machines. Cluster.Run uses it for this party's share; the
// transport reuses it to re-execute a lost peer's machines mid-round
// (exact replay: execution is a pure function of (seed, round, machine,
// inputs)).
type roundExec struct {
	c          *Cluster
	ctx        context.Context
	round      int
	name       string
	phase      trace.Phase
	obs        trace.Observer
	inputs     map[int][]Payload
	inWords    map[int]int
	fn         MachineFunc
	base       time.Time
	plan       *fault.Plan
	active     bool
	maxRetries int
	labels     pprof.LabelSet // {algo, phase, round} profiler labels
	labeled    bool
}

// runBody runs one attempt of a machine body. It reports true when the
// body was abandoned because the round's context was done: the machine's
// op counter is bound to that context and panics with stats.Cancelled,
// which is recovered here. Any other panic propagates.
func runBody(fn MachineFunc, x *Ctx, in []Payload) (cancelled bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stats.Cancelled); !ok {
				panic(r)
			}
			cancelled = true
		}
	}()
	fn(x, in)
	return false
}

// run executes the given machines concurrently (bounded by the cluster's
// parallelism) and returns their execution records in id order.
func (re *roundExec) run(ids []int) ([]transport.Record, error) {
	c, ctx, obs := re.c, re.ctx, re.obs
	round, name, phase := re.round, re.name, re.phase
	plan, active, maxRetries := re.plan, re.active, re.maxRetries

	ctxs := make([]*Ctx, len(ids))
	// Per-machine fault bookkeeping, written by the machine's goroutine and
	// read after wg.Wait (the Wait establishes the happens-before edge).
	crashed := make([]*fault.CrashError, len(ids))
	machFails := make([]int, len(ids))
	machRetries := make([]int, len(ids))
	var wg sync.WaitGroup
	sem := make(chan struct{}, c.cfg.Parallelism)
	for k, id := range ids {
		ctxs[k] = &Ctx{Machine: id, Round: round, cluster: c, phase: phase, inWords: re.inWords[id]}
		wg.Add(1)
		go func(k, id int, in []Payload) {
			defer wg.Done()
			if re.labeled {
				// The labels live for the goroutine's lifetime; no unset
				// needed. Applied before the semaphore so profiles also
				// attribute scheduler/queueing samples to the round.
				pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), re.labels))
			}
			spawned := time.Now()
			sem <- struct{}{}
			defer func() { <-sem }()
			var queueWait time.Duration
			for attempt := 0; ; attempt++ {
				// Cancellation is re-checked per attempt so a context
				// arriving mid-replay stops within one retry.
				if ctx.Err() != nil {
					return
				}
				// A fresh Ctx per attempt: replay is exact because the
				// machine's random streams and inputs depend only on
				// (seed, round, machine), never on the attempt.
				x := &Ctx{Machine: id, Round: round, cluster: c, phase: phase, inWords: re.inWords[id]}
				x.ops.Bind(ctx)
				ctxs[k] = x
				if active && plan.CrashBefore(round, id, attempt) {
					machFails[k]++
					if obs != nil {
						obs.Fault(trace.FaultEvent{Round: round, Name: name, Phase: phase, Machine: id,
							Kind: trace.FaultCrashBefore, Attempt: attempt, Seq: -1, To: -1, At: time.Now()})
					}
					if attempt >= maxRetries {
						crashed[k] = &fault.CrashError{Round: round, Name: name, Machine: id, Attempts: attempt + 1}
						return
					}
					machRetries[k]++
					if obs != nil {
						obs.Retry(trace.RetryEvent{Round: round, Name: name, Phase: phase, Machine: id,
							Kind: trace.FaultCrashBefore, Attempt: attempt + 1, Seq: -1, At: time.Now()})
					}
					continue
				}
				// The round clock starts here — after slot acquisition — so
				// Elapsed measures machine execution, not semaphore queueing.
				x.start = time.Now()
				if attempt == 0 {
					queueWait = x.start.Sub(spawned)
				}
				x.queueWait = queueWait
				if active {
					if d := plan.StraggleDelay(round, id, attempt); d > 0 {
						machFails[k]++
						if obs != nil {
							obs.Fault(trace.FaultEvent{Round: round, Name: name, Phase: phase, Machine: id,
								Kind: trace.FaultStraggle, Attempt: attempt, Seq: -1, To: -1, At: time.Now()})
						}
						// The injected delay happens inside the span, so it
						// shows up in Elapsed and the skew stats; it aborts
						// early on cancellation.
						select {
						case <-ctx.Done():
							x.end = time.Now()
							if obs != nil {
								obs.MachineEnd(x.span(name))
							}
							return
						case <-time.After(d):
						}
					}
				}
				cancelled := runBody(re.fn, x, in)
				x.end = time.Now()
				if obs != nil {
					obs.MachineEnd(x.span(name))
				}
				if cancelled {
					// The body saw the round's context done mid-computation;
					// its partial output is dropped and Run reports the
					// cancellation.
					x.out = nil
					return
				}
				if active && plan.CrashAfterExec(round, id, attempt) {
					// The machine's output is lost before shipping; replay.
					machFails[k]++
					if obs != nil {
						obs.Fault(trace.FaultEvent{Round: round, Name: name, Phase: phase, Machine: id,
							Kind: trace.FaultCrashAfter, Attempt: attempt, Seq: -1, To: -1, At: time.Now()})
					}
					if attempt >= maxRetries {
						crashed[k] = &fault.CrashError{Round: round, Name: name, Machine: id, Attempts: attempt + 1}
						return
					}
					machRetries[k]++
					if obs != nil {
						obs.Retry(trace.RetryEvent{Round: round, Name: name, Phase: phase, Machine: id,
							Kind: trace.FaultCrashAfter, Attempt: attempt + 1, Seq: -1, At: time.Now()})
					}
					continue
				}
				return
			}
		}(k, id, re.inputs[id])
	}
	if c.cfg.Transport == nil {
		// Without a transport nothing calls run again for this round, so
		// each goroutine may hold the only reference to its input, which
		// the GC reclaims once the machine finishes.
		re.inputs = nil
	}
	wg.Wait()

	recs := make([]transport.Record, len(ids))
	for k, x := range ctxs {
		r := transport.Record{
			Machine:  x.Machine,
			Ops:      x.ops.Count(),
			Failures: machFails[k],
			Retries:  machRetries[k],
		}
		if !x.start.IsZero() {
			r.Started = true
			r.StartNs = x.start.Sub(re.base).Nanoseconds()
			r.EndNs = x.end.Sub(re.base).Nanoseconds()
			r.QueueNs = int64(x.queueWait)
		}
		if ce := crashed[k]; ce != nil {
			// The machine exhausted its replay budget; its output (if any
			// attempt produced one) is lost, so only the crash marker
			// ships — every party fails the round on it identically.
			r.Crashed = true
			r.CrashAttempts = ce.Attempts
		} else {
			r.Msgs = x.out
		}
		recs[k] = r
	}
	return recs, nil
}

// summary converts the round's stats into the observer's closing event.
func summary(round int, st *RoundStats) trace.RoundSummary {
	return trace.RoundSummary{
		Round:     round,
		Name:      st.Name,
		Phase:     st.Phase,
		Machines:  st.Machines,
		Elapsed:   st.Elapsed,
		QueueWait: st.QueueWait,
		TotalOps:  st.TotalOps,
		CommWords: st.CommWords,
		Failures:  st.Failures,
		Retries:   st.Retries,
		Skew:      st.Skew,
	}
}
