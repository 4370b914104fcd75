package expreport

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"storagesubsys/internal/paperref"
	"storagesubsys/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite the golden report under testdata/")

// goldenConfig is a tiny sweep exercising every report feature: the
// baseline plus all four operational dimensions, two trials each at a
// scale small enough for CI.
func goldenConfig(workers int) sweep.Config {
	return sweep.Config{
		Trials:  2,
		Seed:    42,
		Scale:   0.02,
		Deltas:  true,
		Workers: workers,
		Scenarios: []sweep.Scenario{
			{Name: "baseline"},
			{Name: "young-fleet", InstallSkew: 0.5},
			{Name: "churn-x4", ChurnMult: 4},
			{Name: "slow-repair", RepairLagMult: 8, RepairLagSigma: 1.0},
			{Name: "sparse-shelves", SparseShelfFrac: 0.5},
		},
	}
}

// mustExecute runs a fresh sweep, failing the test on error.
func mustExecute(tb testing.TB, cfg sweep.Config) *sweep.Result {
	tb.Helper()
	res, err := sweep.Execute(cfg, nil, nil)
	if err != nil {
		tb.Fatalf("Execute: %v", err)
	}
	return res
}

// TestRenderGolden pins the exact rendered bytes of a small
// paper-vs-spread report — the same byte-determinism contract CI
// enforces on the committed EXPERIMENTS.md. Regenerate with
// `go test ./internal/expreport -run Golden -update` after an
// intentional report change.
func TestRenderGolden(t *testing.T) {
	res := mustExecute(t, goldenConfig(2))
	var buf bytes.Buffer
	if err := Render(&buf, res); err != nil {
		t.Fatalf("Render: %v", err)
	}
	golden := filepath.Join("testdata", "golden_report.md")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("rendered report diverges from %s (%d vs %d bytes); regenerate with -update if the change is intentional",
			golden, buf.Len(), len(want))
	}
}

// TestRenderWorkerCountInvariant: the report inherits the sweep's
// determinism contract — any worker count, same bytes.
func TestRenderWorkerCountInvariant(t *testing.T) {
	var a, b bytes.Buffer
	if err := Render(&a, mustExecute(t, goldenConfig(1))); err != nil {
		t.Fatal(err)
	}
	if err := Render(&b, mustExecute(t, goldenConfig(4))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("report bytes differ between worker counts")
	}
}

// summaryWith builds a defined MetricSummary spanning [min, max] with
// the given CI.
func summaryWith(cilo, cihi, min, max float64) sweep.MetricSummary {
	return sweep.MetricSummary{
		N:    5,
		CILo: sweep.Float(cilo), CIHi: sweep.Float(cihi),
		Min: sweep.Float(min), Max: sweep.Float(max),
	}
}

// TestVerdicts covers the classification lattice: CI overlap beats
// spread overlap beats outside, and undefined metrics report no data.
func TestVerdicts(t *testing.T) {
	band := paperref.Band{Lo: 0.20, Hi: 0.55}
	cases := []struct {
		name string
		m    sweep.MetricSummary
		want Verdict
	}{
		{"ci overlaps band", summaryWith(0.50, 0.60, 0.45, 0.65), WithinCI},
		{"only spread overlaps", summaryWith(0.60, 0.70, 0.50, 0.75), InSpread},
		{"everything above band", summaryWith(0.60, 0.70, 0.58, 0.75), Outside},
		{"everything below band", summaryWith(0.05, 0.10, 0.01, 0.12), Outside},
		{"undefined metric", sweep.MetricSummary{N: 0}, NoData},
	}
	for _, c := range cases {
		if got := verdict(band, c.m); got != c.want {
			t.Errorf("%s: verdict = %v, want %v", c.name, got, c.want)
		}
	}
	open := paperref.Band{Lo: 0.15, Hi: math.Inf(1)}
	if got := verdict(open, summaryWith(0.2, 0.9, 0.1, 1.0)); got != WithinCI {
		t.Errorf("open band verdict = %v, want WithinCI", got)
	}
}

// TestConfrontScalesPopulationTargets: ScalesWithFleet bands must be
// multiplied by the scenario's effective scale before comparing.
func TestConfrontScalesPopulationTargets(t *testing.T) {
	// Find the population target to learn its full-scale band.
	var tgt paperref.Target
	for _, f := range paperref.Findings {
		for _, tg := range f.Targets {
			if tg.ScalesWithFleet {
				tgt = tg
			}
		}
	}
	if tgt.Metric == "" {
		t.Skip("no fleet-scaled target in the registry")
	}
	mid := (tgt.Band.Lo + tgt.Band.Hi) / 2 * 0.10 // inside the band at 10% scale
	ss := sweep.ScenarioSummary{
		Scenario: sweep.Scenario{Name: "baseline"},
		Metrics: []sweep.MetricSummary{{
			Name: tgt.Metric, N: 3,
			CILo: sweep.Float(mid * 0.99), CIHi: sweep.Float(mid * 1.01),
			Min: sweep.Float(mid * 0.98), Max: sweep.Float(mid * 1.02),
		}},
	}
	for _, fr := range Confront(ss, 0.10) {
		for _, tr := range fr.Targets {
			if tr.Target.Metric != tgt.Metric {
				continue
			}
			if tr.Band.Lo != tgt.Band.Lo*0.10 || tr.Band.Hi != tgt.Band.Hi*0.10 {
				t.Fatalf("band not scaled: %+v", tr.Band)
			}
			if tr.Verdict != WithinCI {
				t.Fatalf("scaled verdict = %v, want WithinCI", tr.Verdict)
			}
			return
		}
	}
	t.Fatal("fleet-scaled target not found in confrontation")
}

// TestConfrontCoversEveryFinding: the joined report must carry every
// registry finding with every target resolved (the acceptance
// criterion behind EXPERIMENTS.md's coverage).
func TestConfrontCoversEveryFinding(t *testing.T) {
	res := mustExecute(t, sweep.Config{Trials: 1, Seed: 42, Scale: 0.02, Workers: 2,
		Scenarios: []sweep.Scenario{{Name: "baseline"}}})
	frs := Confront(res.Scenarios[0], 0.02)
	if len(frs) != len(paperref.Findings) {
		t.Fatalf("confrontation covers %d findings, want %d", len(frs), len(paperref.Findings))
	}
	for i, fr := range frs {
		if fr.Finding.ID != paperref.Findings[i].ID {
			t.Errorf("finding order diverged at %d", i)
		}
		if len(fr.Targets) != len(paperref.Findings[i].Targets) {
			t.Errorf("finding %d: %d targets, want %d", fr.Finding.ID, len(fr.Targets), len(paperref.Findings[i].Targets))
		}
	}
}

// TestRenderPartialBanner: a budget-truncated sweep result renders
// with an explicit PARTIAL banner listing per-scenario completed
// trials, while complete results stay byte-identical to the golden
// (TestRenderGolden covers the latter; this test covers the former).
func TestRenderPartialBanner(t *testing.T) {
	cfg := goldenConfig(2)
	cfg.BudgetTrials = 3 // 5 scenarios x 2 trials: stops inside scenario 1
	res, err := sweep.Execute(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("budgeted sweep not marked Partial")
	}
	var buf bytes.Buffer
	if err := Render(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "PARTIAL SWEEP") {
		t.Fatal("partial report carries no PARTIAL banner")
	}
	if !strings.Contains(out, "baseline: 2/2 trials") || !strings.Contains(out, "young-fleet: 1/2 trials") ||
		!strings.Contains(out, "churn-x4: 0/2 trials") {
		t.Fatalf("banner lacks per-scenario completed counts:\n%s", out[:400])
	}
	if !strings.Contains(out, "-resume") {
		t.Fatal("banner does not tell the reader how to complete the sweep")
	}
}
