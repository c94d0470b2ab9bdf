package mpcdist

import (
	"context"

	"mpcdist/internal/approx"
	"mpcdist/internal/baseline"
	"mpcdist/internal/chain"
	"mpcdist/internal/core"
	"mpcdist/internal/editdist"
	"mpcdist/internal/lcs"
	"mpcdist/internal/lis"
	"mpcdist/internal/mpc"
	"mpcdist/internal/stats"
	"mpcdist/internal/trace"
	"mpcdist/internal/ulam"
)

// MPCParams configures an MPC execution; see core.Params for field
// documentation. The zero value of every field except X has a sensible
// default; X (the memory exponent) must be set.
type MPCParams = core.Params

// MPCResult is the outcome of an MPC execution: the computed value plus
// the measured model quantities (rounds, machines, memory, work).
type MPCResult = core.Result

// Report aggregates the per-round measurements of a simulated cluster.
type Report = mpc.Report

// Phase labels the paper phase a round belongs to (partition, candidates,
// graph, chain); every simulated round carries exactly one.
type Phase = trace.Phase

// PhaseStats aggregates the Table 1 quantities of one phase of a run.
type PhaseStats = mpc.PhaseStats

// PhaseProfile is a Report re-aggregated by paper phase, in canonical
// phase order.
type PhaseProfile = mpc.PhaseProfile

// Profile groups a report's rounds by paper phase. For a single-cluster
// report the profile partitions the report exactly (see
// PhaseProfile.Conserves).
func Profile(r Report) PhaseProfile { return mpc.Profile(r) }

// PairSolver selects the per-pair kernel of the edit-distance small
// regime; see the constants re-exported below.
type PairSolver = core.PairSolver

// Pair-solver choices for MPCParams.Solver.
const (
	// PairHybridExact (default): exact pair distances, 1+eps small regime.
	PairHybridExact = core.PairHybridExact
	// PairApprox12: the Chakraborty-et-al.-style approximate pair solver,
	// 3+eps as in the paper.
	PairApprox12 = core.PairApprox12
	// PairMyers: always the bit-parallel exact kernel.
	PairMyers = core.PairMyers
)

// Ops counts elementary operations performed by a kernel; pass nil when
// not needed.
type Ops = stats.Ops

// BlockMatch is one link of an MPC result's chain: block s[L..R] maps to
// sbar[G..K] at cost D (MPCResult.Chain, Ulam distance only).
type BlockMatch = chain.Tuple

// Window is an inclusive substring interval [Gamma, Kappa] of the second
// string.
type Window = ulam.Window

// EditOp is one column of an edit script; see Script.
type EditOp = editdist.Op

// Edit operation kinds.
const (
	Match      = editdist.Match
	Substitute = editdist.Substitute
	Insert     = editdist.Insert
	Delete     = editdist.Delete
)

// EditDistance returns the exact edit distance between two strings using
// the classic dynamic program (quadratic time, linear space).
func EditDistance(a, b string) int {
	return editdist.Strings(a, b)
}

// EditDistanceBytes is EditDistance for byte slices, with optional
// operation accounting.
func EditDistanceBytes(a, b []byte, ops *Ops) int {
	return editdist.Bytes(a, b, ops)
}

// EditDistanceFast returns the exact edit distance using the Myers
// bit-parallel algorithm (roughly 64x fewer word operations).
func EditDistanceFast(a, b []byte, ops *Ops) int {
	return editdist.Myers(a, b, ops)
}

// EditDistanceBounded returns min(ed(a,b), bound+1) in O(bound·n) time.
func EditDistanceBounded(a, b []byte, bound int, ops *Ops) int {
	return editdist.BoundedDistance(a, b, bound, ops)
}

// EditDistanceDiagonal returns the exact edit distance with the
// Landau-Myers diagonal-transition algorithm, O(n + d^2 log n) expected —
// the fastest exact kernel when the strings are huge but similar.
func EditDistanceDiagonal(a, b []byte, ops *Ops) int {
	return editdist.DiagonalTransition(a, b, ops)
}

// UlamScript returns an optimal Ulam transformation of a into b as an
// edit script (Cost(script) equals UlamDistance(a, b)). It panics on
// repeated characters; UlamScriptE returns an error instead.
func UlamScript(a, b []int) []EditOp {
	s, err := UlamScriptE(a, b)
	if err != nil {
		panic("mpcdist: " + err.Error())
	}
	return s
}

// UlamScriptE is UlamScript with an error return instead of a panic on
// inputs with repeated characters — the form to use on untrusted input.
func UlamScriptE(a, b []int) ([]EditOp, error) {
	if err := checkDistinctBoth(a, b); err != nil {
		return nil, err
	}
	return ulam.Script(a, b, nil), nil
}

// EditScript returns an optimal edit script transforming a into b
// (Hirschberg's linear-space alignment).
func EditScript(a, b []byte) []EditOp {
	return editdist.Script(a, b)
}

// ApproxEditDistance returns a constant-factor approximation of ed(a, b)
// in subquadratic time — the sequential [12]-substitute used per machine
// by the paper's small-distance regime. eps <= 0 means 0.5; seed drives
// its internal sampling.
func ApproxEditDistance(a, b []byte, eps float64, seed int64, ops *Ops) int {
	return approx.Ed(a, b, approx.Params{Eps: eps, Seed: seed}, ops)
}

// UlamDistance returns the exact Ulam distance (substitutions allowed)
// between two strings of distinct characters. It panics if either input
// repeats a character; use UlamDistanceE on untrusted input.
func UlamDistance(a, b []int) int {
	d, err := UlamDistanceE(a, b)
	if err != nil {
		panic("mpcdist: " + err.Error())
	}
	return d
}

// UlamDistanceE is UlamDistance with an error return instead of a panic
// on inputs with repeated characters — the form to use on untrusted
// input (e.g. a server rejecting a bad request).
func UlamDistanceE(a, b []int) (int, error) {
	if err := checkDistinctBoth(a, b); err != nil {
		return 0, err
	}
	return ulam.Exact(a, b, nil), nil
}

// CheckDistinct reports whether s is free of repeated characters, as the
// Ulam routines require.
func CheckDistinct(s []int) error { return ulam.CheckDistinct(s) }

// UlamIndelDistance returns the insert/delete-only Ulam distance (the
// relaxed notion of Naumovitz et al. contrasted in the paper's
// introduction): |a| + |b| - 2·LCS(a, b), computable in O(n log n) via
// LIS. It always lies in [UlamDistance(a,b), 2·UlamDistance(a,b)].
func UlamIndelDistance(a, b []int) int {
	mustDistinct(a)
	mustDistinct(b)
	return lis.IndelUlam(a, b)
}

// LongestIncreasingSubsequence returns the length of the LIS of a — the
// dual problem of Ulam distance discussed in Section 1.
func LongestIncreasingSubsequence(a []int) int { return lis.Length(a) }

// LocalUlam returns the minimum Ulam distance between block and any
// substring of sbar, with a window attaining it (the paper's lulam).
// It panics on repeated characters; LocalUlamE returns an error instead.
func LocalUlam(block, sbar []int) (int, Window) {
	d, w, err := LocalUlamE(block, sbar)
	if err != nil {
		panic("mpcdist: " + err.Error())
	}
	return d, w
}

// LocalUlamE is LocalUlam with an error return instead of a panic on
// inputs with repeated characters — the form to use on untrusted input.
func LocalUlamE(block, sbar []int) (int, Window, error) {
	if err := checkDistinctBoth(block, sbar); err != nil {
		return 0, Window{}, err
	}
	d, w := ulam.Local(block, sbar, nil)
	return d, w, nil
}

// UlamDistanceMPC approximates the Ulam distance within 1+eps with high
// probability in two MPC rounds on a simulated cluster with Õ(n^x)
// machines of Õ(n^{1-x}) words each (Theorem 4). Requires 0 < X < 1/2.
func UlamDistanceMPC(s, sbar []int, p MPCParams) (MPCResult, error) {
	return core.UlamMPC(s, sbar, p)
}

// UlamDistanceMPCCtx is UlamDistanceMPC with a cancellation context: the
// simulation aborts between rounds, before each machine executes, and
// inside a machine's work once ctx is done, returning ctx's error.
func UlamDistanceMPCCtx(ctx context.Context, s, sbar []int, p MPCParams) (MPCResult, error) {
	p.Ctx = ctx
	return core.UlamMPC(s, sbar, p)
}

// EditDistanceMPC approximates the edit distance within 3+eps (1+eps with
// the default exact pair kernel) in at most four MPC rounds per distance
// guess, on Õ(n^{(9/5)x}) machines of Õ(n^{1-x}) words each (Theorem 9).
// Requires 0 < X <= 5/17.
func EditDistanceMPC(s, sbar []byte, p MPCParams) (MPCResult, error) {
	return core.EditMPC(s, sbar, p)
}

// EditDistanceMPCCtx is EditDistanceMPC with a cancellation context: the
// simulation aborts between rounds, before each machine executes, and
// inside a machine's work once ctx is done, returning ctx's error.
func EditDistanceMPCCtx(ctx context.Context, s, sbar []byte, p MPCParams) (MPCResult, error) {
	p.Ctx = ctx
	return core.EditMPC(s, sbar, p)
}

// EditDistanceMPCSmall runs only the small-distance regime (Lemma 6) for a
// fixed distance guess.
func EditDistanceMPCSmall(s, sbar []byte, guess int, p MPCParams) (MPCResult, error) {
	return core.EditSmallMPC(s, sbar, guess, p)
}

// EditDistanceMPCLarge runs only the large-distance regime (Lemma 8) for a
// fixed distance guess.
func EditDistanceMPCLarge(s, sbar []byte, guess int, p MPCParams) (MPCResult, error) {
	return core.EditLargeMPC(s, sbar, guess, p)
}

// EditDistanceHSS runs the prior MPC algorithm of Hajiaghayi, Seddighin,
// and Sun (Table 1 "previous work"): 1+eps in two rounds per guess, with
// one machine per (block, candidate) pair — Õ(n^{2x}) machines. Requires
// 0 < X < 1/2.
func EditDistanceHSS(s, sbar []byte, p MPCParams) (MPCResult, error) {
	return baseline.HSSEditMPC(s, sbar, p)
}

// LCSLength returns the exact longest-common-subsequence length via the
// sparse Hunt-Szymanski algorithm (near-linear for strings with few
// repeated characters, O(nm log) worst case).
func LCSLength(a, b []byte, ops *Ops) int {
	return lcs.HuntSzymanski(a, b, ops)
}

// LCSPairs returns one optimal LCS matching as (I, J) index pairs,
// increasing in both strings (Hirschberg, linear space).
func LCSPairs(a, b []byte) []LCSPair {
	return lcs.Pairs(a, b)
}

// LCSPair is one matched column of an LCS alignment.
type LCSPair = lcs.Pair

// IndelDistance returns the insert/delete-only edit distance
// |a| + |b| - 2·LCS(a, b) — the LCS-dual metric.
func IndelDistance(a, b []byte, ops *Ops) int {
	return lcs.IndelDistance(a, b, ops)
}

// LCSMPC approximates the LCS in two MPC rounds per guess with the
// block/candidate scheme of [20] adapted to maximization (an extension of
// this repository; see DESIGN.md). The result is always an achievable
// common-subsequence length and is within 1+O(eps) of the LCS for similar
// strings. Requires 0 < X < 1/2.
func LCSMPC(a, b []byte, p MPCParams) (MPCResult, error) {
	return baseline.LCSMPC(a, b, p)
}

func mustDistinct(s []int) {
	if err := ulam.CheckDistinct(s); err != nil {
		panic("mpcdist: " + err.Error())
	}
}

func checkDistinctBoth(a, b []int) error {
	if err := ulam.CheckDistinct(a); err != nil {
		return err
	}
	return ulam.CheckDistinct(b)
}
