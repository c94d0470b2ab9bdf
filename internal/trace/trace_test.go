package trace

import (
	"testing"
	"time"
)

func TestSummarizeEmpty(t *testing.T) {
	if got := Summarize(nil); got != (SkewStats{}) {
		t.Errorf("Summarize(nil) = %+v, want zero", got)
	}
}

func TestSummarizeSingle(t *testing.T) {
	got := Summarize([]time.Duration{10 * time.Millisecond})
	if got.Max != 10*time.Millisecond || got.Mean != 10*time.Millisecond ||
		got.P99 != 10*time.Millisecond || got.Straggler != 1 {
		t.Errorf("Summarize single = %+v", got)
	}
}

func TestSummarizeSkewed(t *testing.T) {
	// Nine 1ms machines and one 11ms straggler: mean 2ms, ratio 5.5.
	times := make([]time.Duration, 9, 10)
	for i := range times {
		times[i] = time.Millisecond
	}
	times = append(times, 11*time.Millisecond)
	got := Summarize(times)
	if got.Max != 11*time.Millisecond {
		t.Errorf("Max = %v", got.Max)
	}
	if got.Mean != 2*time.Millisecond {
		t.Errorf("Mean = %v", got.Mean)
	}
	if got.P99 != 11*time.Millisecond {
		t.Errorf("P99 = %v (max for < 100 machines)", got.P99)
	}
	if got.Straggler != 5.5 {
		t.Errorf("Straggler = %v, want 5.5", got.Straggler)
	}
	// Input must not be mutated (Summarize sorts a copy).
	if times[0] != time.Millisecond || times[9] != 11*time.Millisecond {
		t.Error("Summarize mutated its input")
	}
}

func TestSummarizeP99Rank(t *testing.T) {
	// 200 machines: nearest-rank p99 is the 198th value (rank ceil(198)).
	times := make([]time.Duration, 200)
	for i := range times {
		times[i] = time.Duration(i+1) * time.Microsecond
	}
	got := Summarize(times)
	if got.P99 != 198*time.Microsecond {
		t.Errorf("P99 = %v, want 198us", got.P99)
	}
}

func TestSummarizeAllZero(t *testing.T) {
	got := Summarize([]time.Duration{0, 0, 0})
	if got.Straggler != 1 {
		t.Errorf("all-zero Straggler = %v, want 1 (balanced by definition)", got.Straggler)
	}
}

func TestMultiFanOutAndNilHandling(t *testing.T) {
	a, b := &Collector{}, &Collector{}
	m := Multi(nil, a, nil, b)
	m.RoundStart(RoundInfo{Round: 0, Name: "r", Machines: 1})
	m.MachineEnd(MachineSpan{Round: 0, Machine: 3, Sends: 1, OutWords: 7})
	m.RoundEnd(RoundSummary{Round: 0, Name: "r"})
	for _, c := range []*Collector{a, b} {
		if len(c.Starts) != 1 || len(c.Spans) != 1 || c.Spans[0].Sends != 1 ||
			c.Spans[0].OutWords != 7 || len(c.Summaries) != 1 {
			t.Errorf("collector missed events: %+v", c)
		}
	}
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of no live observers should be nil")
	}
	if Multi(a) != Observer(a) {
		t.Error("Multi of one observer should return it unwrapped")
	}
}
