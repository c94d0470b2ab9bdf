package core

import (
	"math/rand"
	"testing"

	"mpcdist/internal/workload"
)

// TestGraphPhasePinned pins three seeded large-regime jobs on unrelated
// random texts (n=240, x=0.25, eps=0.5), where the graph phase does nearly
// all the work. Value, rounds, machine runs and comm words are the
// numbers the graph phase produced when R1 priced every representative-node
// pair with its own Myers call: pricing a start's window ladder in one
// MyersMulti pass must not move any of them. TotalOps is pinned to the
// ladder pricing's own charge.
func TestGraphPhasePinned(t *testing.T) {
	cases := []struct {
		seed                int64
		value, rounds, runs int
		commWords, totalOps int64
	}{
		{seed: 1, value: 215, rounds: 30, runs: 1731, commWords: 12071062, totalOps: 9195129},
		{seed: 2, value: 214, rounds: 30, runs: 1786, commWords: 12490551, totalOps: 9534538},
		{seed: 3, value: 216, rounds: 30, runs: 1709, commWords: 11901560, totalOps: 9139754},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(c.seed))
		s := workload.RandomString(rng, 240, 26)
		sbar := workload.RandomString(rng, 240, 26)
		res, err := EditMPC(s, sbar, Params{X: 0.25, Eps: 0.5, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Regime != "large" {
			t.Fatalf("seed %d: regime %q, want large", c.seed, res.Regime)
		}
		runs := 0
		for _, r := range res.Report.Rounds {
			runs += r.Machines
		}
		if res.Value != c.value || len(res.Report.Rounds) != c.rounds || runs != c.runs ||
			res.Report.CommWords != c.commWords {
			t.Errorf("seed %d: value %d rounds %d runs %d comm %d, want %d %d %d %d", c.seed,
				res.Value, len(res.Report.Rounds), runs, res.Report.CommWords,
				c.value, c.rounds, c.runs, c.commWords)
		}
		if res.Report.TotalOps != c.totalOps {
			t.Errorf("seed %d: TotalOps %d, want %d", c.seed, res.Report.TotalOps, c.totalOps)
		}
	}
}
