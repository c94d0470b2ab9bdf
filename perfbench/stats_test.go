package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // sorted: 10 20 30 40
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 25}, {90, 37}, {100, 40}, {25, 17.5},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: got %v, want 0", got)
	}
	if xs[0] != 40 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}
