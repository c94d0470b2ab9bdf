// Package chain implements the "second phase" dynamic programs of the
// paper: given tuples — (block of s, candidate substring of s-bar,
// distance) triples gathered by the first round(s) — select a chain of
// tuples forming a global transformation of s into s-bar of minimum total
// cost.
//
// Two cost models are provided, matching the paper's two algorithms:
//
//   - UlamCost (Algorithm 2): the characters between two consecutive chosen
//     tuples cost max(s-gap, sbar-gap), because with distinct characters
//     min(p, q) of them can be substituted pairwise.
//   - EditCost (Algorithm 4): the characters between tuples cost
//     s-gap + sbar-gap (deletions plus insertions).
//
// EditCost optionally admits overlapping candidate substrings, charging the
// overlap (the "minor difference" noted in Section 5.2.3 for the
// large-distance regime), and is implemented both as the transparent
// quadratic DP printed in the paper and as a Fenwick-accelerated
// O(T log T) variant (the "suitable data structure" remark).
//
// Phase attribution: chain has no Cluster.Run call sites of its own — the
// DPs execute on the single machine of each driver's final round
// ("ulam/chain", "edit-small/chain", "edit-large/chain", and the baseline
// chain rounds), so every operation counted here is charged to that
// round's trace.PhaseChain.
//
// All coordinates are 0-based and inclusive.
package chain

import (
	"sort"

	"mpcdist/internal/bitree"
	"mpcdist/internal/stats"
)

// Tuple is one partial solution: block s[L..R] transforms into
// sbar[G..K] at cost D. An empty candidate substring is encoded K = G-1.
type Tuple struct {
	L, R int // block interval in s, inclusive
	G, K int // candidate interval in sbar, inclusive (K = G-1 if empty)
	D    int // distance (or distance upper bound) for this pair
}

const inf = int(^uint(0) >> 2)

// UlamCost runs Algorithm 2: the minimum cost of transforming s (length n)
// into sbar (length m) choosing a non-overlapping increasing chain of
// tuples, with max-gap costs. Quadratic in len(tuples), as in the paper.
// An empty tuple set yields max(n, m) (full substitution).
func UlamCost(tuples []Tuple, n, m int, ops *stats.Ops) int {
	v, _ := UlamCostChain(tuples, n, m, ops)
	return v
}

// UlamCostChain is UlamCost plus the chain realizing it: the selected
// tuples in increasing block order. An empty chain means the whole
// transformation is a bulk substitution/indel.
func UlamCostChain(tuples []Tuple, n, m int, ops *stats.Ops) (int, []Tuple) {
	ts := append([]Tuple(nil), tuples...)
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].L != ts[b].L {
			return ts[a].L < ts[b].L
		}
		return ts[a].G < ts[b].G
	})
	best := maxInt(n, m) // use no tuples at all
	bestEnd := -1
	d := make([]int, len(ts))
	parent := make([]int, len(ts))
	for a := range ts {
		t := ts[a]
		d[a] = maxInt(t.L, t.G) + t.D
		parent[a] = -1
		for b := 0; b < a; b++ {
			p := ts[b]
			if p.R < t.L && p.K < t.G && d[b] < inf {
				gap := maxInt(t.L-p.R-1, t.G-p.K-1)
				if c := d[b] + gap + t.D; c < d[a] {
					d[a] = c
					parent[a] = b
				}
			}
		}
		// Charged row by row, so a bound counter can cancel mid-DP.
		ops.Add(int64(a + 1))
		if c := d[a] + maxInt(n-1-t.R, m-1-t.K); c < best {
			best = c
			bestEnd = a
		}
	}
	var out []Tuple
	for at := bestEnd; at >= 0; at = parent[at] {
		out = append(out, ts[at])
	}
	for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
		out[l], out[r] = out[r], out[l]
	}
	return best, out
}

// EditCostQuadratic runs Algorithm 4 exactly as printed (additive gap
// costs, quadratic time). When allowOverlap is true, tuples whose candidate
// substrings intersect a predecessor's may still chain, paying the overlap
// length, per Section 5.2.3.
func EditCostQuadratic(tuples []Tuple, n, m int, allowOverlap bool, ops *stats.Ops) int {
	v, _ := EditCostChain(tuples, n, m, allowOverlap, ops)
	return v
}

// EditCostChain is EditCostQuadratic plus the chain realizing the value.
func EditCostChain(tuples []Tuple, n, m int, allowOverlap bool, ops *stats.Ops) (int, []Tuple) {
	ts := append([]Tuple(nil), tuples...)
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].L != ts[b].L {
			return ts[a].L < ts[b].L
		}
		return ts[a].G < ts[b].G
	})
	best := n + m
	bestEnd := -1
	d := make([]int, len(ts))
	parent := make([]int, len(ts))
	for a := range ts {
		t := ts[a]
		d[a] = t.L + t.G + t.D
		parent[a] = -1
		for b := 0; b < a; b++ {
			p := ts[b]
			if p.R >= t.L || d[b] >= inf {
				continue
			}
			sgap := t.L - p.R - 1
			var bgap int
			switch {
			case p.K < t.G:
				bgap = t.G - p.K - 1
			case allowOverlap:
				bgap = p.K - t.G + 1 // remove the common part
			default:
				continue
			}
			if c := d[b] + sgap + bgap + t.D; c < d[a] {
				d[a] = c
				parent[a] = b
			}
		}
		// Charged row by row, so a bound counter can cancel mid-DP.
		ops.Add(int64(a + 1))
		if c := d[a] + (n - 1 - t.R) + (m - 1 - t.K); c < best {
			best = c
			bestEnd = a
		}
	}
	var out []Tuple
	for at := bestEnd; at >= 0; at = parent[at] {
		out = append(out, ts[at])
	}
	for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
		out[l], out[r] = out[r], out[l]
	}
	return best, out
}

// EditCost computes the same value as EditCostQuadratic in O(T log T) using
// two Fenwick trees over the candidate endpoints: for a tuple a the
// transition cost splits additively into
//
//	kappa' <  gamma_a:  (L_a + G_a - 2·0) + (D[b] - R_b - K_b) - 2
//	kappa' >= gamma_a:  (L_a - G_a)       + (D[b] - R_b + K_b)
//
// so prefix/suffix minima over compressed K values suffice. Tuples are
// inserted once their R is below the current query's L (their D values are
// final by then, since L_b <= R_b < L_a).
func EditCost(tuples []Tuple, n, m int, allowOverlap bool, ops *stats.Ops) int {
	ts := append([]Tuple(nil), tuples...)
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].L != ts[b].L {
			return ts[a].L < ts[b].L
		}
		return ts[a].G < ts[b].G
	})
	// byR: insertion order.
	byR := make([]int, len(ts))
	for i := range byR {
		byR[i] = i
	}
	sort.Slice(byR, func(x, y int) bool { return ts[byR[x]].R < ts[byR[y]].R })

	// Compress K values.
	keys := make([]int, len(ts))
	for i, t := range ts {
		keys[i] = t.K
	}
	sort.Ints(keys)
	keys = dedupInts(keys)
	rank := func(v int) int { return sort.SearchInts(keys, v) }
	nk := len(keys)

	pre := bitree.NewMin(nk + 1) // min over K <= q of D[b]-R_b-K_b
	suf := bitree.NewMin(nk + 1) // min over K >= q of D[b]-R_b+K_b (reversed)

	d := make([]int, len(ts))
	best := n + m
	ins := 0
	var work int64
	for a := range ts {
		t := ts[a]
		for ins < len(byR) && ts[byR[ins]].R < t.L {
			b := byR[ins]
			p := ts[b]
			r := rank(p.K)
			pre.Update(r, int64(d[b]-p.R-p.K))
			suf.Update(nk-1-r, int64(d[b]-p.R+p.K))
			ins++
			work++
		}
		d[a] = t.L + t.G + t.D
		// kappa' <= gamma_a - 1: prefix over ranks of values <= G-1.
		hi := sort.SearchInts(keys, t.G) - 1 // last index with key <= G-1
		if v := pre.PrefixMin(hi); v < bitree.Inf {
			if c := int(v) + t.L + t.G - 2 + t.D; c < d[a] {
				d[a] = c
			}
		}
		if allowOverlap {
			// kappa' >= gamma_a: suffix over ranks of values >= G.
			lo := sort.SearchInts(keys, t.G) // first index with key >= G
			if v := suf.PrefixMin(nk - 1 - lo); v < bitree.Inf {
				if c := int(v) + t.L - t.G + t.D; c < d[a] {
					d[a] = c
				}
			}
		}
		work += 2
		if c := d[a] + (n - 1 - t.R) + (m - 1 - t.K); c < best {
			best = c
		}
	}
	ops.Add(work)
	return best
}

func dedupInts(s []int) []int {
	out := s[:0]
	for _, v := range s {
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// LCSScore returns the maximum total score of an ordered, non-overlapping
// chain of tuples, where Tuple.D holds the LCS (score) of the pair instead
// of a distance — the maximization dual of EditCost used by the LCS MPC
// extension. Gaps contribute nothing. Implemented with a Fenwick
// prefix-max over candidate endpoints in O(T log T); LCSScoreChain is the
// quadratic variant that also recovers a chain.
func LCSScore(tuples []Tuple, ops *stats.Ops) int {
	ts := append([]Tuple(nil), tuples...)
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].L != ts[b].L {
			return ts[a].L < ts[b].L
		}
		return ts[a].G < ts[b].G
	})
	byR := make([]int, len(ts))
	for i := range byR {
		byR[i] = i
	}
	sort.Slice(byR, func(x, y int) bool { return ts[byR[x]].R < ts[byR[y]].R })
	keys := make([]int, len(ts))
	for i, t := range ts {
		keys[i] = t.K
	}
	sort.Ints(keys)
	keys = dedupInts(keys)
	tree := bitree.NewMax(len(keys) + 1)
	d := make([]int, len(ts))
	best := 0
	ins := 0
	var work int64
	for a := range ts {
		t := ts[a]
		for ins < len(byR) && ts[byR[ins]].R < t.L {
			b := byR[ins]
			tree.Update(sort.SearchInts(keys, ts[b].K), int64(d[b]))
			ins++
			work++
		}
		d[a] = t.D
		// Predecessors need K < G: prefix max over key ranks < rank(G).
		hi := sort.SearchInts(keys, t.G) - 1
		if v := tree.PrefixMax(hi); v > 0 {
			d[a] = int(v) + t.D
		}
		work += 2
		if d[a] > best {
			best = d[a]
		}
	}
	ops.Add(work)
	return best
}

// LCSScoreChain is LCSScore plus a chain realizing it.
func LCSScoreChain(tuples []Tuple, ops *stats.Ops) (int, []Tuple) {
	ts := append([]Tuple(nil), tuples...)
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].L != ts[b].L {
			return ts[a].L < ts[b].L
		}
		return ts[a].G < ts[b].G
	})
	best, bestEnd := 0, -1
	d := make([]int, len(ts))
	parent := make([]int, len(ts))
	var work int64
	for a := range ts {
		t := ts[a]
		d[a] = t.D
		parent[a] = -1
		for b := 0; b < a; b++ {
			p := ts[b]
			if p.R < t.L && p.K < t.G {
				if c := d[b] + t.D; c > d[a] {
					d[a] = c
					parent[a] = b
				}
			}
		}
		work += int64(a + 1)
		if d[a] > best {
			best, bestEnd = d[a], a
		}
	}
	ops.Add(work)
	var out []Tuple
	for at := bestEnd; at >= 0; at = parent[at] {
		out = append(out, ts[at])
	}
	for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
		out[l], out[r] = out[r], out[l]
	}
	return best, out
}
