package main

import "fmt"

// editDistance is the textbook O(|a|·|b|) dynamic program for the
// unit-cost edit distance (insert, delete, substitute). It shares no code
// with the kernels under test, so a broken kernel cannot also break the
// oracle that judges it. On sequences of distinct symbols it is the Ulam
// distance with substitutions, the distance the Ulam pipeline approximates.
func editDistance[T comparable](a, b []T) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			c := prev[j-1]
			if a[i-1] != b[j-1] {
				c++
			}
			if v := prev[j] + 1; v < c {
				c = v
			}
			if v := cur[j-1] + 1; v < c {
				c = v
			}
			cur[j] = c
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// factorFor is the approximation factor an answer must meet: 3+eps for
// the edit pipeline's large-distance regime, 1+eps for its small regime
// (exact pair kernel) and for the Ulam pipeline.
func factorFor(regime string, eps float64) float64 {
	if regime == "large" {
		return 3 + eps
	}
	return 1 + eps
}

// checkAnswer is the correctness gate for one job: the answer is the cost
// of an alignment the algorithm found, so it can never undercut the exact
// distance, and it must lie within the factor above it.
func checkAnswer(value, exact int, factor float64) error {
	if value < exact {
		return fmt.Errorf("answer %d is below the exact distance %d", value, exact)
	}
	if float64(value) > factor*float64(exact) {
		return fmt.Errorf("answer %d exceeds %.2f x exact distance %d", value, factor, exact)
	}
	return nil
}
