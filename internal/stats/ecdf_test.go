package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFEval(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := e.Eval(c.x); got != c.want {
			t.Errorf("Eval(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestECDFQuantile(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40, 50})
	cases := []struct{ p, want float64 }{
		{0, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {1, 50},
	}
	for _, c := range cases {
		if got := e.Quantile(c.p); got != c.want {
			t.Errorf("Quantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if !math.IsNaN(e.Eval(1)) || !math.IsNaN(e.Quantile(0.5)) {
		t.Error("empty ECDF should produce NaN")
	}
	if e.Len() != 0 {
		t.Error("empty ECDF length")
	}
}

func TestECDFPoints(t *testing.T) {
	var xs []float64
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		xs = append(xs, r.Exponential(1e-4))
	}
	e := NewECDF(xs)
	px, py := e.Points(50)
	if len(px) != 50 || len(py) != 50 {
		t.Fatalf("want 50 points, got %d/%d", len(px), len(py))
	}
	for i := 1; i < len(px); i++ {
		if px[i] <= px[i-1] {
			t.Error("points x not increasing")
		}
		if py[i] < py[i-1] {
			t.Error("points y not monotone")
		}
	}
	if py[len(py)-1] != 1 {
		t.Errorf("last point should reach 1, got %g", py[len(py)-1])
	}
}

func TestECDFDoesNotAliasInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	e := NewECDF(xs)
	xs[0] = 100
	if e.Eval(3) != 1 {
		t.Error("ECDF must copy its input")
	}
}

// Property: Eval is the true empirical fraction for any sample.
func TestQuickECDFMatchesDirectCount(t *testing.T) {
	f := func(raw []float64, probe float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 || math.IsNaN(probe) {
			return true
		}
		e := NewECDF(xs)
		count := 0
		for _, v := range xs {
			if v <= probe {
				count++
			}
		}
		return math.Abs(e.Eval(probe)-float64(count)/float64(len(xs))) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	approx(t, "mean", s.Mean, 5, 1e-12)
	approx(t, "stddev", s.StdDev, math.Sqrt(32.0/7), 1e-12)
	if s.Min != 2 || s.Max != 9 {
		t.Error("min/max wrong")
	}
	approx(t, "median", s.Median, 4.5, 1e-12)

	odd := Summarize([]float64{3, 1, 2})
	approx(t, "odd median", odd.Median, 2, 1e-12)

	empty := Summarize(nil)
	if !math.IsNaN(empty.Mean) || empty.N != 0 {
		t.Error("empty summary should be NaN/0")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	sort.Float64s(sorted)
	approx(t, "p0", percentile(sorted, 0), 1, 1e-12)
	approx(t, "p50", percentile(sorted, 0.5), 3, 1e-12)
	approx(t, "p100", percentile(sorted, 1), 5, 1e-12)
	approx(t, "p125", percentile(sorted, 0.125), 1.5, 1e-12)
}
