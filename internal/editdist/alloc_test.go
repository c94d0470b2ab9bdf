//go:build !race

// The race detector drops sync.Pool items at random, so these counts only
// hold without it.

package editdist

import (
	"math/rand"
	"testing"

	"mpcdist/internal/stats"
)

func TestMyersAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	a, b := randBytes(rng, 150, 26), randBytes(rng, 200, 26)
	var ops stats.Ops
	if n := testing.AllocsPerRun(100, func() { Myers(a, b, &ops) }); n != 0 {
		t.Errorf("Myers allocates %v objects per call, want 0", n)
	}
	// MyersMulti allocates only its result slice.
	ends := []int{10, 200, 64, 10}
	if n := testing.AllocsPerRun(100, func() { MyersMulti(a, b, ends, &ops) }); n != 1 {
		t.Errorf("MyersMulti allocates %v objects per call, want 1", n)
	}
}
