package sweep

import (
	"math"
	"testing"

	"storagesubsys/internal/sim"
)

// TestTrialVariantContract pins trialVariant's pure mapping — the
// seed-pairing schedule every checkpoint, retry, and delta aggregate
// built under a variance mode depends on. Like trialSeed's pins, a
// change here silently re-means recorded results.
func TestTrialVariantContract(t *testing.T) {
	const seed, trials = 42, 8
	for trial := 0; trial < trials; trial++ {
		// none (and the empty mode) degenerate to the plain schedule.
		for _, mode := range []string{"", VarianceNone} {
			s, anti, st := trialVariant(mode, seed, trial, trials)
			if s != trialSeed(seed, trial) || anti || st != (sim.Strata{}) {
				t.Fatalf("mode %q trial %d: (%d, %v, %+v), want plain (%d, false, zero)",
					mode, trial, s, anti, st, trialSeed(seed, trial))
			}
		}

		// antithetic: 2k and 2k+1 share trial 2k's seed; the odd trial is
		// the mirrored leg; no strata.
		s, anti, st := trialVariant(VarianceAntithetic, seed, trial, trials)
		wantSeed := trialSeed(seed, trial-trial%2)
		if s != wantSeed || anti != (trial%2 == 1) || st != (sim.Strata{}) {
			t.Fatalf("antithetic trial %d: (%d, %v, %+v), want (%d, %v, zero)",
				trial, s, anti, st, wantSeed, trial%2 == 1)
		}

		// stratified: per-trial seed, stratum = trial index, permutation
		// keyed by the sweep seed.
		s, anti, st = trialVariant(VarianceStratified, seed, trial, trials)
		want := sim.Strata{Index: trial, Count: trials, Seed: seed}
		if s != trialSeed(seed, trial) || anti || st != want {
			t.Fatalf("stratified trial %d: (%d, %v, %+v), want (%d, false, %+v)",
				trial, s, anti, st, trialSeed(seed, trial), want)
		}
	}
}

// TestCRNStreamIdentity pins the common-random-numbers contract the
// package comment documents: trialSeed never consults the scenario, so
// trial t of two scenarios with identical knobs runs on the identical
// stream tree and produces bit-identical metrics. The sharpest
// observable form: a no-override twin of the baseline must show every
// paired delta exactly zero — mean, spread, everything — because each
// pair subtracts a value from itself.
func TestCRNStreamIdentity(t *testing.T) {
	cfg := Config{
		Trials: 4, Seed: 42, Scale: 0.005, Workers: 3, Deltas: true,
		Scenarios: []Scenario{{Name: "baseline"}, {Name: "crn-twin"}},
	}
	res := mustExecute(t, cfg)
	if len(res.Deltas) != 1 {
		t.Fatalf("%d delta blocks, want 1 (the twin against the baseline)", len(res.Deltas))
	}
	sd := res.Deltas[0]
	if sd.Scenario != "crn-twin" || sd.Baseline != "baseline" {
		t.Fatalf("contrast labeled %s − %s", sd.Scenario, sd.Baseline)
	}
	paired := 0
	for _, d := range sd.Metrics {
		if d.N == 0 {
			continue
		}
		paired++
		if float64(d.Mean) != 0 || float64(d.StdDev) != 0 {
			t.Errorf("%s: mean %v stddev %v — trial streams are NOT scenario-independent",
				d.Name, float64(d.Mean), float64(d.StdDev))
		}
	}
	if paired == 0 {
		t.Fatal("no metric produced any pairs; the identity was never exercised")
	}

	// The same identity at the summary level: the twin's per-metric
	// summaries must be bit-identical to the baseline's.
	base, twin := res.Scenarios[0], res.Scenarios[1]
	for i, m := range base.Metrics {
		tm := twin.Metrics[i]
		if math.Float64bits(float64(m.Mean)) != math.Float64bits(float64(tm.Mean)) ||
			math.Float64bits(float64(m.StdDev)) != math.Float64bits(float64(tm.StdDev)) {
			t.Errorf("metric %s: twin summary diverged from baseline", m.Name)
		}
	}
}

// TestDeltasSkipBaselineAndFailedPairs: the baseline never contrasts
// with itself, and a pair where either leg is NaN (metric undefined in
// that trial) is dropped from that metric's aggregate without
// poisoning the others.
func TestDeltasSkipBaselineAndFailedPairs(t *testing.T) {
	agg := newDeltaAgg([]Scenario{{Name: "a"}, {Name: BaselineName}, {Name: "c"}}, 2, 3)
	if agg.bi != 1 {
		t.Fatalf("baseline index %d, want 1", agg.bi)
	}
	// Scenario c trial 0 arrives after the baseline: paired immediately.
	agg.absorb(1, 0, []float64{1, 2, 3})
	agg.absorb(2, 0, []float64{2, math.NaN(), 5})
	// Scenario a precedes the baseline: trial 1 buffers, then flushes
	// when the baseline's row lands.
	agg.absorb(0, 1, []float64{10, 20, 30})
	agg.absorb(1, 1, []float64{1, 1, 1})
	// A permanently failed trial (nil row) pairs with nothing.
	agg.absorb(2, 1, nil)

	if n := agg.paired[1][0].N(); n != 0 {
		t.Errorf("baseline self-contrast accumulated %d pairs", n)
	}
	if n := agg.paired[2][0].N(); n != 1 {
		t.Errorf("scenario c metric 0: %d pairs, want 1 (trial 1 failed)", n)
	}
	if n := agg.paired[2][1].N(); n != 0 {
		t.Errorf("scenario c metric 1: %d pairs, want 0 (NaN leg)", n)
	}
	if got := agg.paired[2][2].Mean(); got != 2 {
		t.Errorf("scenario c metric 2 delta mean %v, want 2", got)
	}
	if n := agg.paired[0][0].N(); n != 1 {
		t.Errorf("pre-baseline scenario a metric 0: %d pairs, want 1", n)
	}
	if got := agg.paired[0][0].Mean(); got != 9 {
		t.Errorf("pre-baseline delta mean %v, want 9 (10 − 1)", got)
	}
	if agg.pending[0][1] != nil {
		t.Error("flushed pending row not cleared")
	}
}

// TestVarianceChangesDescribe: a scenario's resolved variance mode is
// part of its rendered description, so two results swept under
// different modes can never be confused for one another.
func TestVarianceChangesDescribe(t *testing.T) {
	s := Scenario{Name: "x", Variance: VarianceAntithetic}
	if got := s.Describe(0.25); got == (Scenario{Name: "x"}).Describe(0.25) {
		t.Fatalf("Describe ignores the variance mode: %q", got)
	}
}
