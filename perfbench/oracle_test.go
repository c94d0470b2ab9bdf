package main

import (
	"math/rand"
	"testing"

	"mpcdist"
)

func TestEditDistanceOracle(t *testing.T) {
	if d := editDistance([]byte("kitten"), []byte("sitting")); d != 3 {
		t.Errorf("ed(kitten, sitting) = %d, want 3", d)
	}
	if d := editDistance([]byte(""), []byte("abc")); d != 3 {
		t.Errorf("ed(\"\", abc) = %d, want 3", d)
	}
	// Against the program's exact kernels, on the workloads' own shapes.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		a := randText(rng, 60, 4)
		b := plantEdits(rng, a, 10, 4)
		if got, want := editDistance(a, b), mpcdist.EditDistance(string(a), string(b)); got != want {
			t.Fatalf("edit oracle %d, program %d on %q %q", got, want, a, b)
		}
		p := rng.Perm(50)
		q := moveItems(rng, p, 6)
		if got, want := editDistance(p, q), mpcdist.UlamDistance(p, q); got != want {
			t.Fatalf("Ulam oracle %d, program %d on %v %v", got, want, p, q)
		}
	}
}

func TestCheckAnswer(t *testing.T) {
	for _, c := range []struct {
		value, exact int
		factor       float64
		ok           bool
	}{
		{100, 100, 1.5, true},
		{150, 100, 1.5, true},
		{151, 100, 1.5, false}, // beyond the factor
		{99, 100, 3.5, false},  // below the exact distance
		{0, 0, 1.5, true},
		{1, 0, 3.5, false},
	} {
		if err := checkAnswer(c.value, c.exact, c.factor); (err == nil) != c.ok {
			t.Errorf("checkAnswer(%d, %d, %v) = %v, want ok=%v", c.value, c.exact, c.factor, err, c.ok)
		}
	}
	if factorFor("large", 0.5) != 3.5 || factorFor("small", 0.5) != 1.5 || factorFor("", 0.5) != 1.5 {
		t.Error("factorFor: want 3+eps for the large regime, 1+eps otherwise")
	}
}

// TestGateRejectsDoctoredAnswer runs a real MPC job, then doctors its
// answer: the gate must pass the real one and reject the doctored ones.
func TestGateRejectsDoctoredAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randText(rng, 128, 4)
	pr := newEditPair(a, plantEdits(rng, a, 8, 4))
	res, err := mpcdist.EditDistanceMPC(pr.a, pr.b, mpcdist.MPCParams{X: farX, Eps: farEps, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := factorFor(res.Regime, farEps)
	if err := checkAnswer(res.Value, pr.exact, f); err != nil {
		t.Fatalf("real answer rejected: %v", err)
	}
	for _, v := range []int{pr.exact - 1, int(f*float64(pr.exact)) + 1} {
		if checkAnswer(v, pr.exact, f) == nil {
			t.Errorf("doctored answer %d accepted (exact %d, factor %v)", v, pr.exact, f)
		}
	}
}
