package main

import "testing"

func dist(n int) *Dist {
	d := &Dist{}
	for i := 1; i <= n; i++ {
		d.Add(float64(i))
	}
	return d
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		want  float64
		wantQ float64
	}{
		{1000, 0.99, 0.99}, // exactly 10 beyond p99
		{999, 0.99, 0.98},  // 9.99 beyond p99: step down
		{100, 0.99, 0.90},
		{100, 0.90, 0.90},
		{150, 0.90, 0.90},
		{30, 0.90, 0.50},
		{19, 0.99, 0.0}, // too few for any tail
		{10000, 0.90, 0.90},
	}
	for _, c := range cases {
		q, v, n := dist(c.n).Tail(c.want)
		if q != c.wantQ || n != c.n {
			t.Errorf("n=%d want p%g: got p%g over %d samples, want p%g over %d", c.n, c.want*100, q*100, n, c.wantQ*100, c.n)
		}
		if q > 0 && float64(c.n)*(1-q) < minBeyond-1e-9 {
			t.Errorf("n=%d: p%g leaves fewer than %d samples beyond", c.n, q*100, minBeyond)
		}
		if q > 0 && v != dist(c.n).Quantile(q) {
			t.Errorf("n=%d: tail value %g is not the p%g quantile", c.n, v, q*100)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	d := dist(5) // 1..5
	if got := d.Quantile(0.5); got != 3 {
		t.Errorf("median of 1..5 = %g, want 3", got)
	}
	if got := d.Quantile(0.125); got != 1.5 {
		t.Errorf("p12.5 of 1..5 = %g, want 1.5", got)
	}
	if got := (&Dist{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestAlignedMedianIgnoresOneDisturbedPass(t *testing.T) {
	a, b, c := dist(100), dist(100), dist(100)
	for i := 80; i < 100; i++ {
		b.vals[i] *= 3 // a slow moment at the end of one pass
	}
	med := alignedMedian([]Dist{*a, *b, *c})
	if got, want := med.Quantile(0.9), a.Quantile(0.9); got != want {
		t.Errorf("p90 of per-item medians = %g, want the undisturbed %g", got, want)
	}
	if m := alignedMedian([]Dist{*a, *dist(60)}); m.N() != 60 {
		t.Errorf("passes of 100 and 60 items aligned to %d, want the common 60", m.N())
	}
}
