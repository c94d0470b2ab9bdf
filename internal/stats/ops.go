// Package stats provides operation counters and table-formatting helpers
// used by the benchmark harness to report measured model quantities
// (machines, memory, work) in the shape of the paper's Table 1.
package stats

import (
	"context"
	"sync/atomic"
)

// Ops counts elementary operations (DP cell evaluations, comparisons)
// performed by a kernel. A nil *Ops is valid everywhere and counts nothing,
// so hot paths can skip instrumentation without branching at call sites.
//
// The counter is safe for concurrent use: simulated MPC machines run on
// separate goroutines and may share one Ops.
type Ops struct {
	n   atomic.Int64
	ctx context.Context // see Bind
}

// cancelEvery is the op-count granularity at which a bound counter polls
// its context: Add checks each time the running count crosses a multiple.
const cancelEvery = 1 << 16

// Cancelled is the value Add panics with when the context a counter is
// bound to is done. Whoever bound the counter recovers it.
type Cancelled struct{ Err error }

// Bind ties the counter to ctx: from then on, each time the count crosses
// a multiple of 64Ki ops, Add checks ctx and, if it is done, panics with
// Cancelled. This lets a caller abandon a kernel mid-computation without
// threading a context through every kernel signature. Bind must happen
// before the counter is shared.
func (o *Ops) Bind(ctx context.Context) { o.ctx = ctx }

// Add records n additional operations. Safe on a nil receiver.
func (o *Ops) Add(n int64) {
	if o == nil {
		return
	}
	v := o.n.Add(n)
	if o.ctx != nil && (v-n)/cancelEvery != v/cancelEvery {
		if err := o.ctx.Err(); err != nil {
			panic(Cancelled{err})
		}
	}
}

// Count returns the number of operations recorded so far.
// Safe on a nil receiver (returns 0).
func (o *Ops) Count() int64 {
	if o == nil {
		return 0
	}
	return o.n.Load()
}

// Reset zeroes the counter. Safe on a nil receiver.
func (o *Ops) Reset() {
	if o != nil {
		o.n.Store(0)
	}
}
