package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1, 1, 1, 100}, 1},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{7, 1, 3}, 1, 7},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 20, 100, 1000, 5000, 10000, 20000} {
		idx, pct, ok := tailRank(n, 10)
		if !ok {
			t.Fatalf("n=%d: no tail rank", n)
		}
		if beyond := n - idx - 1; beyond < 10 {
			t.Errorf("n=%d: %d samples beyond the tail, want ≥ 10", n, beyond)
		}
		if n <= 10000 && n-idx-1 != 10 {
			t.Errorf("n=%d: %d samples beyond, want exactly 10 (highest such percentile)", n, n-idx-1)
		}
		if pct > 99.9+1e-9 {
			t.Errorf("n=%d: percentile %v beyond the p99.9 cap", n, pct)
		}
	}
	if _, _, ok := tailRank(10, 10); ok {
		t.Error("n=10 cannot leave ten samples beyond any sample")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 90 || pct != 90 {
		t.Errorf("tail(1..100) = %v at p%v, want 90 at p90", v, pct)
	}
	if v, pct := tail([]float64{3, 9, 1}); v != 9 || pct != 100 {
		t.Errorf("tail of three samples = %v at p%v, want the maximum at p100", v, pct)
	}
}

func TestSelfTime(t *testing.T) {
	root := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping counted once", []interval{{10, 40}, {30, 50}}, 60},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"clipped to the parent", []interval{{-10, 10}, {90, 120}}, 80},
		{"touching", []interval{{0, 50}, {50, 100}}, 0},
	} {
		if got := selfTime(root, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestThroughputCountsAnsweredWorkOnly(t *testing.T) {
	outs := []outcome{
		{work: 1 << 20},
		{work: 1 << 22},
		{work: 1 << 21, err: errors.New("wrong answer")},
	}
	got := throughput(outs, 2*time.Second)
	want := float64(1<<20+1<<22) / 2
	if got != want {
		t.Errorf("throughput = %v, want %v (failed work excluded)", got, want)
	}
	if throughput(outs, 0) != 0 {
		t.Error("zero elapsed must give zero throughput")
	}
}

func TestLatenciesByClass(t *testing.T) {
	outs := []outcome{
		{class: "read", lat: 2 * time.Millisecond},
		{class: "write", lat: 5 * time.Millisecond},
		{class: "read", lat: time.Millisecond, err: errors.New("refused")},
		{class: "classify", lat: 3 * time.Millisecond},
	}
	if got := latenciesMS(outs, "read", "classify"); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("latencies = %v, want [2 3]", got)
	}
	if got := latenciesMS(outs); len(got) != 3 {
		t.Errorf("all latencies = %v, want three", got)
	}
}
