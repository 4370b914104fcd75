package sweep

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"math"
	"runtime"
	"strings"
	"testing"

	"storagesubsys/examples"
)

// builtinGrid returns the scenario list of a built-in grid, decoded
// from the embedded file cmd/sweep -grid resolves. (internal/scenario
// cannot be imported here: it imports this package.)
func builtinGrid(tb testing.TB, name string) []Scenario {
	tb.Helper()
	data, err := fs.ReadFile(examples.Grids, "scenarios/"+name+".json")
	if err != nil {
		tb.Fatal(err)
	}
	var spec struct {
		Scenarios []Scenario `json:"scenarios"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		tb.Fatalf("decoding grid %s: %v", name, err)
	}
	return spec.Scenarios
}

// mustExecute runs a fresh sweep, failing the test on error.
func mustExecute(tb testing.TB, cfg Config) *Result {
	tb.Helper()
	res, err := Execute(cfg, nil, nil)
	if err != nil {
		tb.Fatalf("Execute: %v", err)
	}
	return res
}

// testConfig is a cheap two-scenario sweep for the determinism and
// check tests.
func testConfig(t *testing.T, trials, workers int) Config {
	return Config{
		Trials:    trials,
		Seed:      42,
		Scale:     0.005,
		Workers:   workers,
		Scenarios: builtinGrid(t, "smoke"),
	}
}

func resultJSON(t *testing.T, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := mustExecute(t, cfg).WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestSweepWorkerCountEquivalence is the sweep's determinism contract:
// the JSON rendering — every float at full precision — is byte-
// identical for any worker count, because the collector aggregates in
// global trial order no matter which worker produced a trial.
func TestSweepWorkerCountEquivalence(t *testing.T) {
	ref := resultJSON(t, testConfig(t, 4, 1))
	for _, workers := range []int{2, 3, 8} {
		got := resultJSON(t, testConfig(t, 4, workers))
		if !bytes.Equal(ref, got) {
			t.Fatalf("workers=%d JSON differs from workers=1 (%d vs %d bytes)", workers, len(got), len(ref))
		}
	}
}

// TestSweepWorkerCountEquivalenceOpsGrid extends the byte-identity
// contract to the operational-dimension grid: install-window skew,
// churn, stochastic repair lag and the sparse-shelf mix must all stay
// bit-identical for every worker count (the acceptance criterion for
// the PR 5 dimensions).
func TestSweepWorkerCountEquivalenceOpsGrid(t *testing.T) {
	cfg := func(workers int) Config {
		return Config{Trials: 2, Seed: 42, Scale: 0.004, Workers: workers, Scenarios: builtinGrid(t, "ops")}
	}
	ref := resultJSON(t, cfg(1))
	for _, workers := range []int{3, 7} {
		if got := resultJSON(t, cfg(workers)); !bytes.Equal(ref, got) {
			t.Fatalf("ops grid: workers=%d JSON differs from workers=1", workers)
		}
	}
}

// TestFleetKeySeparation pins which scenario overrides force a fleet
// rebuild: topology dimensions (scale, span, skew, churn, shelf mix)
// must key the worker's fleet cache, while pure failure-model
// overrides (rates, repair lag) must share the cached population.
func TestFleetKeySeparation(t *testing.T) {
	cfg := DefaultConfig()
	base := newScenarioRun(Scenario{Name: "a"}, cfg)
	sameFleet := []Scenario{
		{Name: "b", DiskAFRMult: 2},
		{Name: "c", RepairLagMult: 8, RepairLagSigma: 1},
		{Name: "d", PISingletonProb: 1},
		{Name: "e", Mine: true},
	}
	for _, s := range sameFleet {
		if r := newScenarioRun(s, cfg); r.key != base.key {
			t.Errorf("scenario %q must share the baseline fleet, key %+v != %+v", s.Name, r.key, base.key)
		}
	}
	newFleet := []Scenario{
		{Name: "f", Scale: 0.5},
		{Name: "g", SpanShelves: 1},
		{Name: "h", InstallSkew: 0.5},
		{Name: "i", ChurnMult: 4},
		{Name: "j", SparseShelfFrac: 0.5},
	}
	for _, s := range newFleet {
		if r := newScenarioRun(s, cfg); r.key == base.key {
			t.Errorf("scenario %q must rebuild the fleet, but shares the baseline key", s.Name)
		}
	}
	// Failure-model overrides materialize params; topology-only ones
	// must not.
	if newScenarioRun(Scenario{Name: "k", ChurnMult: 4}, cfg).params != nil {
		t.Error("churn is a build-time dimension; it must not materialize failmodel params")
	}
	if newScenarioRun(Scenario{Name: "l", RepairLagMult: 8}, cfg).params == nil {
		t.Error("repair lag is a failmodel dimension; it must materialize params")
	}
}

// TestOpsDimensionsChangeRealizations: each operational dimension must
// actually alter the simulated history (guards against an override
// silently not being plumbed through).
func TestOpsDimensionsChangeRealizations(t *testing.T) {
	cfg := func(s Scenario) Config {
		return Config{Trials: 1, Seed: 42, Scale: 0.01, Workers: 2, Scenarios: []Scenario{s}}
	}
	baseline := mustExecute(t, cfg(Scenario{Name: "baseline"}))
	baseEvents := float64(baseline.Scenarios[0].Metrics[metricIndex("events_visible")].Point)
	if baseEvents <= 0 {
		t.Fatal("baseline produced no events")
	}
	for _, s := range []Scenario{
		{Name: "young", InstallSkew: 0.5},
		{Name: "old", InstallSkew: -0.5},
		{Name: "churn", ChurnMult: 16},
		{Name: "repair", RepairLagMult: 64, RepairLagSigma: 1.5},
		{Name: "sparse", SparseShelfFrac: 0.9},
	} {
		res := mustExecute(t, cfg(s))
		same := true
		for mi, m := range res.Scenarios[0].Metrics {
			b := baseline.Scenarios[0].Metrics[mi]
			gotNaN, baseNaN := math.IsNaN(float64(m.Point)), math.IsNaN(float64(b.Point))
			if gotNaN != baseNaN || (!gotNaN && m.Point != b.Point) {
				same = false
				break
			}
		}
		if same {
			t.Errorf("scenario %q reproduced the baseline metric vector exactly; dimension not plumbed", s.Name)
		}
	}
}

// TestSweepRepeatDeterminism: the same config run twice produces the
// same bytes (pins the reservoir seeding and every aggregation path).
func TestSweepRepeatDeterminism(t *testing.T) {
	a := resultJSON(t, testConfig(t, 3, 2))
	b := resultJSON(t, testConfig(t, 3, 2))
	if !bytes.Equal(a, b) {
		t.Fatal("identical configs produced different JSON")
	}
}

// TestSweepCheck runs the self-check: the independently recomputed
// single-seed trial must match the sweep's retained trial 0 bit for
// bit and sit inside the sweep spread.
func TestSweepCheck(t *testing.T) {
	cfg := testConfig(t, 4, runtime.GOMAXPROCS(0))
	if err := mustExecute(t, cfg).Check(cfg); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

// TestSweepSummaryShape sanity-checks the aggregate structure: metric
// counts and ordering follow the registry, defined metrics carry N ==
// Trials, CIs contain their means, quantiles are ordered, and the
// findings/mining metrics are absent (N == 0) when not enabled.
func TestSweepSummaryShape(t *testing.T) {
	cfg := testConfig(t, 5, 2)
	res := mustExecute(t, cfg)
	if res.Trials != 5 || len(res.Scenarios) != len(cfg.Scenarios) {
		t.Fatalf("result shape: trials %d, %d scenarios", res.Trials, len(res.Scenarios))
	}
	for _, ss := range res.Scenarios {
		if len(ss.Metrics) != len(Metrics) {
			t.Fatalf("scenario %q has %d metrics, want %d", ss.Scenario.Name, len(ss.Metrics), len(Metrics))
		}
		for i, m := range ss.Metrics {
			if m.Name != Metrics[i].Name {
				t.Fatalf("metric %d = %q, want %q", i, m.Name, Metrics[i].Name)
			}
			switch m.Name {
			case "findings_pass", "mined_dropped":
				if m.N != 0 {
					t.Errorf("%s: N = %d, want 0 when disabled", m.Name, m.N)
				}
				continue
			}
			if m.N == 0 {
				continue // undefined at this tiny scale (e.g. sparse gaps)
			}
			mean := float64(m.Mean)
			if m.N == cfg.Trials && (float64(m.CILo) > mean || float64(m.CIHi) < mean) {
				t.Errorf("%s: CI [%v, %v] excludes mean %v", m.Name, m.CILo, m.CIHi, mean)
			}
			if p5, p50, p95 := float64(m.P5), float64(m.P50), float64(m.P95); p5 > p50 || p50 > p95 {
				t.Errorf("%s: quantiles unordered: %v %v %v", m.Name, p5, p50, p95)
			}
			if float64(m.Min) > float64(m.Max) {
				t.Errorf("%s: min %v > max %v", m.Name, m.Min, m.Max)
			}
		}
	}
	// events_visible must be defined everywhere and never negative.
	ev := res.Scenarios[0].Metrics[metricIndex("events_visible")]
	if ev.N != cfg.Trials || float64(ev.Mean) <= 0 {
		t.Errorf("events_visible: N %d mean %v", ev.N, ev.Mean)
	}
}

// TestSweepFindingsMetric checks that -findings populates the
// findings_pass metric.
func TestSweepFindingsMetric(t *testing.T) {
	cfg := testConfig(t, 2, 2)
	cfg.Findings = true
	res := mustExecute(t, cfg)
	m := res.Scenarios[0].Metrics[metricIndex("findings_pass")]
	if m.N != 2 {
		t.Fatalf("findings_pass N = %d, want 2", m.N)
	}
	if v := float64(m.Mean); v < 0 || v > 11 {
		t.Fatalf("findings_pass mean %v outside [0, 11]", v)
	}
}

// TestSweepPerTrialAllocsFlat guards the scratch-reuse contract at the
// engine level: growing the trial count must grow allocations only
// linearly, at a per-trial rate far below the cost of a fresh
// build+simulate (i.e. no per-trial fleet rebuild and no aggregator
// garbage). The rate between 8→14 trials must match 2→8 within 25%.
func TestSweepPerTrialAllocsFlat(t *testing.T) {
	cfg := func(trials int) Config {
		return Config{Trials: trials, Seed: 42, Scale: 0.005, Workers: 1,
			Scenarios: []Scenario{{Name: "baseline"}}}
	}
	mallocs := func(trials int) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		mustExecute(t, cfg(trials))
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs)
	}
	mallocs(2) // warm the runtime
	m2, m8, m14 := mallocs(2), mallocs(8), mallocs(14)
	rate1 := (m8 - m2) / 6
	rate2 := (m14 - m8) / 6
	if rate1 <= 0 || rate2 <= 0 {
		t.Skipf("allocation counters not usable: rates %v, %v", rate1, rate2)
	}
	if ratio := rate2 / rate1; ratio > 1.25 || ratio < 0.75 {
		t.Errorf("per-trial allocation rate drifts: %0.f then %0.f allocs/trial (ratio %.2f); steady state must be flat",
			rate1, rate2, ratio)
	}
}

// TestExecuteRejectsEmptyGrid: with no scenarios there is nothing to
// sweep, and Execute says so instead of substituting a grid or
// panicking.
func TestExecuteRejectsEmptyGrid(t *testing.T) {
	res, err := Execute(Config{Trials: 1, Seed: 42, Scale: 0.005}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "no scenarios") {
		t.Fatalf("Execute with no scenarios = %v, %v; want a no-scenarios error", res, err)
	}
}

// TestTrialSeedDerivation pins trial 0 to the canonical single-run
// seed and later trials to distinct split keys.
func TestTrialSeedDerivation(t *testing.T) {
	if s := trialSeed(42, 0); s != 43 {
		t.Fatalf("trial 0 seed = %d, want 43 (the cmd/reproduce derivation)", s)
	}
	seen := map[int64]bool{trialSeed(42, 0): true}
	for ti := 1; ti < 100; ti++ {
		s := trialSeed(42, ti)
		if seen[s] {
			t.Fatalf("duplicate trial seed %d at trial %d", s, ti)
		}
		seen[s] = true
	}
}

// TestFloatJSON pins the NaN-as-null encoding round trip.
func TestFloatJSON(t *testing.T) {
	b, err := Float(math.NaN()).MarshalJSON()
	if err != nil || string(b) != "null" {
		t.Fatalf("NaN marshal = %s, %v", b, err)
	}
	b, err = Float(1.25).MarshalJSON()
	if err != nil || string(b) != "1.25" {
		t.Fatalf("1.25 marshal = %s, %v", b, err)
	}
	var f Float
	if err := f.UnmarshalJSON([]byte("null")); err != nil || !math.IsNaN(float64(f)) {
		t.Fatalf("null unmarshal = %v, %v", f, err)
	}
	if err := f.UnmarshalJSON([]byte("2.5")); err != nil || f != 2.5 {
		t.Fatalf("2.5 unmarshal = %v, %v", f, err)
	}
}
