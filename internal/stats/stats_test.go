package stats

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestOpsNilSafe(t *testing.T) {
	var o *Ops
	o.Add(5)
	if o.Count() != 0 {
		t.Error("nil Ops should count 0")
	}
	o.Reset()
}

func TestOpsBindPollsAtBoundaries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var o Ops
	o.Bind(ctx)
	o.Add(cancelEvery - 1)
	cancel()
	o.Add(0) // no boundary crossed: no poll, no panic
	defer func() {
		r, ok := recover().(Cancelled)
		if !ok || r.Err != context.Canceled {
			t.Fatalf("recovered %v, want Cancelled{context.Canceled}", r)
		}
		if o.Count() != cancelEvery {
			t.Errorf("count %d, want %d: the crossing Add still counts", o.Count(), cancelEvery)
		}
	}()
	o.Add(1)
	t.Fatal("Add crossed a boundary of a cancelled counter without panicking")
}

func TestOpsConcurrent(t *testing.T) {
	var o Ops
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				o.Add(1)
			}
		}()
	}
	wg.Wait()
	if o.Count() != 8000 {
		t.Errorf("concurrent count = %d, want 8000", o.Count())
	}
	o.Reset()
	if o.Count() != 0 {
		t.Error("Reset failed")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "n", "value")
	tb.Add("alpha", 100, 3.14159)
	tb.Add("beta", 20000, "x")
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[2], "alpha") {
		t.Errorf("table content wrong:\n%s", s)
	}
	if !strings.Contains(lines[2], "3.14") {
		t.Errorf("float formatting wrong:\n%s", s)
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = 2 x^1.5
	xs := []float64{10, 100, 1000, 10000}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2 * math.Pow(x, 1.5)
	}
	if got := LogLogSlope(xs, ys); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("slope = %v, want 1.5", got)
	}
	if !math.IsNaN(LogLogSlope([]float64{1}, []float64{1})) {
		t.Error("single point should give NaN")
	}
	if !math.IsNaN(LogLogSlope([]float64{-1, -2}, []float64{1, 2})) {
		t.Error("non-positive xs should give NaN")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 4) != 2.5 {
		t.Error("Ratio wrong")
	}
	if !math.IsInf(Ratio(1, 0), 1) {
		t.Error("Ratio by zero should be +Inf")
	}
}
