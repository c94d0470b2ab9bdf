package editdist

import (
	"math/rand"
	"sync"
	"testing"

	"mpcdist/internal/stats"
)

// checkPooled runs Myers and MyersMulti on one random case against the
// full-matrix DP and checks their ops charges. Lengths and alphabets vary
// from call to call, so a peq entry left set by an earlier pattern would
// corrupt a later distance.
func checkPooled(t *testing.T, rng *rand.Rand) {
	sigma := []int{1, 2, 4, 26, 256}[rng.Intn(5)]
	a := randAlpha(rng, rng.Intn(300), sigma)
	b := randAlpha(rng, rng.Intn(300), sigma)
	var ops stats.Ops
	if got, want := Myers(a, b, &ops), naive(a, b); got != want {
		t.Errorf("Myers = %d, want %d (|a|=%d |b|=%d sigma=%d)", got, want, len(a), len(b), sigma)
		return
	}
	short, long := len(a), len(b)
	if short > long {
		short, long = long, short
	}
	if short > 0 {
		if want := int64((short+wordBits-1)/wordBits) * int64(long); ops.Count() != want {
			t.Errorf("Myers charged %d ops, want %d", ops.Count(), want)
		}
	}
	ends := make([]int, rng.Intn(6))
	maxEnd := 0
	for i := range ends {
		ends[i] = rng.Intn(len(b) + 1)
		maxEnd = max(maxEnd, ends[i])
	}
	ops.Reset()
	got := MyersMulti(a, b, ends, &ops)
	for i, e := range ends {
		if want := naive(a, b[:e]); got[i] != want {
			t.Errorf("MyersMulti end %d = %d, want %d (|a|=%d sigma=%d)", e, got[i], want, len(a), sigma)
			return
		}
	}
	if len(a) > 0 && len(ends) > 0 {
		if want := int64((len(a)+wordBits-1)/wordBits) * int64(maxEnd); ops.Count() != want {
			t.Errorf("MyersMulti charged %d ops, want %d", ops.Count(), want)
		}
	}
}

func randAlpha(rng *rand.Rand, n, sigma int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(sigma))
	}
	return s
}

func TestMyersPooledMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300 && !t.Failed(); trial++ {
		checkPooled(t, rng)
	}
}

func TestMyersPooledConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 100 && !t.Failed(); trial++ {
				checkPooled(t, rng)
			}
		}(int64(30 + g))
	}
	wg.Wait()
}
