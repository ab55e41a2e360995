package main

import (
	"math"
	"sort"
	"time"
)

// Dist is a sample of durations, summarised the way the benchmark
// reports timings: a median, plus the highest requested percentile that
// still has at least minBeyond samples above it.
type Dist struct {
	vals []float64
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// Add records one sample.
func (d *Dist) Add(v float64) { d.vals = append(d.vals, v) }

// AddDur records one duration in milliseconds.
func (d *Dist) AddDur(v time.Duration) { d.Add(ms(v)) }

func ms(v time.Duration) float64 { return float64(v) / float64(time.Millisecond) }

// N is the sample count.
func (d *Dist) N() int { return len(d.vals) }

// Quantile is the q-quantile (0..1) by linear interpolation between
// closest ranks; 0 for an empty sample.
func (d *Dist) Quantile(q float64) float64 {
	if len(d.vals) == 0 {
		return 0
	}
	s := append([]float64(nil), d.vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Tail picks the highest percentile not above want (e.g. 0.99) that has
// at least minBeyond samples beyond it, and returns that percentile with
// its value and the sample count. Candidates step down through the
// usual reporting percentiles; a sample too small for even p50 reports
// q = 0 and value 0.
func (d *Dist) Tail(want float64) (q, v float64, n int) {
	n = len(d.vals)
	for _, c := range []float64{0.999, 0.99, 0.98, 0.95, 0.9, 0.8, 0.75, 0.5} {
		if c > want+1e-12 {
			continue
		}
		if float64(n)*(1-c) >= minBeyond-1e-9 {
			return c, d.Quantile(c), n
		}
	}
	return 0, 0, n
}

// median of a small set of per-pass figures.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := Dist{vals: xs}
	return d.Quantile(0.5)
}

// alignedMedian is each item's median across passes. Every pass
// measures the same items in the same order — the same days, the same
// partitions in commit order, the same seeded reads, or the same
// requests due at the same offset into the live phase — so item i of
// each pass is comparable. A moment when the machine ran slow disturbs
// one pass's items, not the same items in most passes, so percentiles
// over these medians repeat better than over raw samples. Passes of
// different lengths are cut to the shortest.
func alignedMedian(passes []Dist) Dist {
	if len(passes) == 0 {
		return Dist{}
	}
	n := passes[0].N()
	for i := range passes {
		n = min(n, passes[i].N())
	}
	out := Dist{vals: make([]float64, n)}
	col := make([]float64, len(passes))
	for j := 0; j < n; j++ {
		for i := range passes {
			col[i] = passes[i].vals[j]
		}
		out.vals[j] = median(col)
	}
	return out
}
