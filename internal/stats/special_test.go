package stats

import (
	"math"
	"testing"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) {
		t.Fatalf("%s = %v, want %v", name, got, want)
	}
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.10g, want %.10g (tol %g)", name, got, want, tol)
	}
}

func TestDigammaKnownValues(t *testing.T) {
	// Reference values from standard tables.
	const gamma = 0.5772156649015329 // Euler–Mascheroni
	cases := []struct{ x, want float64 }{
		{1, -gamma},
		{2, 1 - gamma},
		{3, 1.5 - gamma},
		{0.5, -gamma - 2*math.Ln2},
		{10, 2.251752589066721},
		{0.1, -10.42375494041108},
	}
	for _, c := range cases {
		approx(t, "Digamma", Digamma(c.x), c.want, 1e-8)
	}
}

func TestDigammaRecurrence(t *testing.T) {
	// psi(x+1) = psi(x) + 1/x for a spread of x.
	for _, x := range []float64{0.2, 0.7, 1.3, 2.9, 7.5, 42} {
		approx(t, "Digamma recurrence", Digamma(x+1), Digamma(x)+1/x, 1e-9)
	}
}

func TestDigammaInvalid(t *testing.T) {
	if !math.IsNaN(Digamma(0)) || !math.IsNaN(Digamma(-3)) {
		t.Error("Digamma of non-positive x should be NaN")
	}
}

func TestTrigammaKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{1, math.Pi * math.Pi / 6},
		{0.5, math.Pi * math.Pi / 2},
		{2, math.Pi*math.Pi/6 - 1},
		{10, 0.10516633568168575},
	}
	for _, c := range cases {
		approx(t, "Trigamma", Trigamma(c.x), c.want, 1e-8)
	}
}

func TestTrigammaRecurrence(t *testing.T) {
	for _, x := range []float64{0.3, 1.1, 4.2, 9.9} {
		approx(t, "Trigamma recurrence", Trigamma(x+1), Trigamma(x)-1/(x*x), 1e-9)
	}
}

func TestGammaIncPKnownValues(t *testing.T) {
	// P(1, x) = 1 - e^-x.
	for _, x := range []float64{0.1, 1, 2.5, 7} {
		approx(t, "GammaIncP(1,x)", GammaIncP(1, x), 1-math.Exp(-x), 1e-12)
	}
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.2, 1, 3} {
		approx(t, "GammaIncP(0.5,x)", GammaIncP(0.5, x), math.Erf(math.Sqrt(x)), 1e-12)
	}
	// Boundary and complement.
	if GammaIncP(2, 0) != 0 {
		t.Error("P(a, 0) should be 0")
	}
	for _, a := range []float64{0.3, 1, 4, 20} {
		for _, x := range []float64{0.5, 2, 10, 40} {
			approx(t, "P+Q=1", GammaIncP(a, x)+GammaIncQ(a, x), 1, 1e-12)
		}
	}
}

func TestGammaIncInvalid(t *testing.T) {
	if !math.IsNaN(GammaIncP(-1, 2)) || !math.IsNaN(GammaIncP(1, -2)) {
		t.Error("invalid arguments should produce NaN")
	}
	if !math.IsNaN(GammaIncQ(0, 1)) {
		t.Error("GammaIncQ with a=0 should be NaN")
	}
}

func TestBetaIncKnownValues(t *testing.T) {
	// I_x(1, 1) = x.
	for _, x := range []float64{0.1, 0.5, 0.9} {
		approx(t, "BetaInc(1,1,x)", BetaInc(1, 1, x), x, 1e-12)
	}
	// I_x(2, 2) = x^2(3-2x).
	for _, x := range []float64{0.25, 0.5, 0.75} {
		approx(t, "BetaInc(2,2,x)", BetaInc(2, 2, x), x*x*(3-2*x), 1e-12)
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, x := range []float64{0.2, 0.6} {
		approx(t, "BetaInc symmetry", BetaInc(2.5, 1.5, x), 1-BetaInc(1.5, 2.5, 1-x), 1e-12)
	}
	if BetaInc(2, 3, 0) != 0 || BetaInc(2, 3, 1) != 1 {
		t.Error("BetaInc boundaries wrong")
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	approx(t, "Phi(0)", NormalCDF(0), 0.5, 1e-12)
	approx(t, "Phi(1.96)", NormalCDF(1.959963984540054), 0.975, 1e-9)
	approx(t, "Phi(-1)", NormalCDF(-1), 0.15865525393145707, 1e-10)
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999} {
		z := NormalQuantile(p)
		approx(t, "Phi(Phi^-1(p))", NormalCDF(z), p, 1e-9)
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("quantile boundaries should be infinite")
	}
}
