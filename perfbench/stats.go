package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method, including its linear extrapolation for tiny
// samples). Fewer than two values give NaNs.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN()
	}
	s := sorted(xs)
	ld := len(s)
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// tailRank picks the tail percentile of n samples: the highest one with
// at least minBeyond samples strictly above it, never beyond p99.9. It
// returns the 0-based index into the ascending samples and the percentile
// that index stands for; ok is false when n is too small to leave
// minBeyond samples above any sample.
func tailRank(n, minBeyond int) (idx int, pct float64, ok bool) {
	if n <= minBeyond {
		return 0, 0, false
	}
	idx = n - minBeyond - 1
	if capIdx := int(math.Ceil(0.999*float64(n))) - 1; idx > capIdx {
		idx = capIdx
	}
	return idx, 100 * float64(idx+1) / float64(n), true
}

// tail returns the tail latency of xs (see tailRank, ten samples beyond)
// and the percentile it stands for. Too few samples fall back to the
// maximum, reported as p100.
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	idx, pct, ok := tailRank(len(s), 10)
	if !ok {
		return s[len(s)-1], 100
	}
	return s[idx], pct
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// interval is a half-open time interval [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns how much of within the union of ivs covers: the part of
// a span's duration its child spans account for, counting overlapping
// children once.
func covered(within interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		lo, hi := max(iv.lo, within.lo), min(iv.hi, within.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	first := true
	var start int64
	for _, iv := range clipped {
		if first || iv.lo > end {
			if !first {
				total += end - start
			}
			start, end, first = iv.lo, iv.hi, false
			continue
		}
		end = max(end, iv.hi)
	}
	if !first {
		total += end - start
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s interval, children []interval) int64 {
	return (s.hi - s.lo) - covered(s, children)
}

// outcome is one finished operation as the load loop saw it.
type outcome struct {
	class string
	lat   time.Duration
	// work is what the operation answered for: facts for an ingest
	// request, the database's whole valuation space for a count (the
	// counted space, not the swept one, so a cheaper plan route counts as
	// a gain).
	work float64
	err  error
}

// throughput returns the work of the successful outcomes per second of
// elapsed wall time.
func throughput(outs []outcome, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	var w float64
	for _, o := range outs {
		if o.err == nil {
			w += o.work
		}
	}
	return w / elapsed.Seconds()
}

// latenciesMS returns the latencies, in milliseconds, of the successful
// outcomes whose class is one of classes (all classes when none given).
func latenciesMS(outs []outcome, classes ...string) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		if len(classes) > 0 && !slices.Contains(classes, o.class) {
			continue
		}
		xs = append(xs, float64(o.lat)/float64(time.Millisecond))
	}
	return xs
}
