package main

import "testing"

func seq(base, step float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base + step*float64(i%5)
	}
	return xs
}

func TestCompareVerdicts(t *testing.T) {
	parent := seq(100, 1, 10) // 100..104, spread about 2%
	for _, c := range []struct {
		name           string
		a, b           []float64
		failsA, failsB int
		better         string
		bound          float64
		want           string
	}{
		{"same runs", parent, seq(100.5, 1, 10), 0, 0, higher, 0.1, unchanged},
		{"clear gain", parent, seq(120, 1, 10), 0, 0, higher, 0.1, improved},
		{"gain needs ten pairs", parent[:9], seq(120, 1, 9), 0, 0, higher, 0.1, unchanged},
		{"lower is better", parent, seq(80, 1, 10), 0, 0, lower, 0.1, improved},
		{"worse beyond the bound", parent, seq(80, 1, 10), 0, 0, higher, 0.1, regressed},
		{"worse within the bound", parent, seq(95, 1, 10), 0, 0, higher, 0.1, unchanged},
		{"spread wider than the bound", seq(100, 10, 10), seq(100, 10, 10), 0, 0, higher, 0.1, unresolved},
		{"wide spread, every change run better", seq(100, 10, 10), seq(150, 10, 10), 0, 0, higher, 0.1, improved},
		{"no bound: significant worsening", parent, seq(80, 1, 10), 0, 0, higher, 0, regressed},
		{"no bound: noise", parent, seq(101, -1, 10), 0, 0, higher, 0, unchanged},
		{"clear gain, but more failed ops", parent, seq(120, 1, 10), 0, 1, higher, 0.1, regressed},
		{"no bound: clear gain, but more failed ops", parent, seq(120, 1, 10), 2, 3, higher, 0, regressed},
		{"clear gain, fewer failed ops", parent, seq(120, 1, 10), 3, 0, higher, 0.1, improved},
	} {
		if got := compareMetric(c.a, c.b, c.failsA, c.failsB, c.better, c.bound); got.verdict != c.want {
			t.Errorf("%s: verdict %s (wins %d/%d), want %s", c.name, got.verdict, got.wins, got.pairs, c.want)
		}
	}
}
