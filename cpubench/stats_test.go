package main

import "testing"

// TestPercentileNeedsTenBeyond pins the reporting rule: a percentile is
// reported only when at least ten samples lie strictly beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		beyond int
		ok     bool
	}{
		{200, 0.95, 190, 10, true},
		{199, 0.95, 190, 9, false},
		{19, 0.50, 10, 9, false},
		{20, 0.50, 10, 10, true},
		{1000, 0.95, 950, 50, true},
	} {
		v, beyond, ok := percentile(seq(tc.n), tc.p)
		if v != tc.want || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("n=%d p=%.2f: got (%v, %d, %v), want (%v, %d, %v)",
				tc.n, tc.p, v, beyond, ok, tc.want, tc.beyond, tc.ok)
		}
	}
	// Ties at the percentile are not beyond it.
	s := make([]float64, 300)
	for i := 200; i < 300; i++ {
		s[i] = 1
	}
	if v, beyond, ok := percentile(s, 0.5); v != 0 || beyond != 100 || !ok {
		t.Errorf("tied samples: got (%v, %d, %v), want (0, 100, true)", v, beyond, ok)
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Error("no samples must not report a percentile")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd count: %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even count: %v", m)
	}
}
