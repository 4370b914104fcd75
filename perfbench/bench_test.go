package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"

	"storagesubsys/internal/scenario"
	"storagesubsys/internal/sweep"
	"storagesubsys/internal/sweepd"
)

// inputs is every input a workload seed generates, encoded for
// comparison.
func inputs(seed int64) []byte {
	var b bytes.Buffer
	for _, wl := range []string{wlSteady, wlMine} {
		b.Write(cliSpec(wl, seed, cliTrials(wl, 30)))
	}
	for _, p := range jobPlans(seed, 360) {
		fmt.Fprintf(&b, "%s %v\n", p.Spec, p.Report)
	}
	b.Write(warmSpec(seed))
	ss := sweepSeed(seed)
	for t := 0; t < 64; t++ {
		fmt.Fprintf(&b, " %d", trialSeed(ss, t))
	}
	fmt.Fprint(&b, sample(seed, 3, 360, checkJobs), sample(seed, 4, 360, replayJobs))
	return b.Bytes()
}

func TestGeneratedInputsDeterministic(t *testing.T) {
	a, b := inputs(7), inputs(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if bytes.Equal(a, inputs(8)) {
		t.Fatal("different seeds generated identical inputs")
	}
	if trialSeed(sweepSeed(7), 5) == trialSeed(sweepSeed(8), 5) {
		t.Fatal("different seeds generated the same trial seed")
	}
}

func TestGeneratedSpecsParse(t *testing.T) {
	specs := [][]byte{warmSpec(3)}
	for _, wl := range []string{wlSteady, wlMine} {
		specs = append(specs, cliSpec(wl, 3, cliTrials(wl, 30)))
	}
	plans := jobPlans(3, 500)
	fresh, reports, deltas := 0, 0, 0
	for _, p := range plans {
		specs = append(specs, p.Spec)
		if p.Report {
			reports++
		}
	}
	for i, data := range specs {
		spec, err := scenario.Parse(data, fmt.Sprintf("spec %d", i))
		if err != nil {
			t.Fatal(err)
		}
		cfg := spec.Config(sweepd.DefaultBase())
		for _, sc := range cfg.Scenarios {
			if sc.EffVariance(cfg.Variance) != "" {
				t.Errorf("spec %d: variance mode %q; the replay assumes none", i, sc.EffVariance(cfg.Variance))
			}
		}
		if cfg.Seed >= 1<<31 {
			fresh++
		}
		if cfg.Deltas {
			deltas++
		}
	}
	// The job mix must exercise both cache paths, deltas and reports.
	for name, n := range map[string]int{"fresh-seed": fresh, "report": reports, "deltas": deltas} {
		if n == 0 || n == len(plans) {
			t.Errorf("%d of %d jobs are %s jobs; want a share", n, len(plans), name)
		}
	}
}

// TestReplayMatchesEngine runs the replay check on a tiny sweep with a
// mined and a failure-model scenario: the benchmark's own trial seeds
// and parameter overrides must reproduce the engine's trials.
func TestReplayMatchesEngine(t *testing.T) {
	cfg := sweep.Config{Trials: 3, Seed: 11, Scale: 0.002, Workers: 2, Scenarios: []sweep.Scenario{
		{Name: "baseline"}, {Name: "slow", RepairLagMult: 8, RepairLagSigma: 1}, {Name: "mined", Mine: true},
	}}
	res, err := sweep.Execute(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{values: map[string]float64{}, record: map[string]any{}, tr: newTracer()}
	r.replayCheck(replay(r.tr, cfg, "test"), res, "test")
	if r.tally.failed != 0 || r.tally.attempted != len(cfg.Scenarios) {
		t.Fatalf("replay check: %d of %d failed: %v", r.tally.failed, r.tally.attempted, r.tally.problems)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	declared := func(defs []metricDef) map[string]string {
		m := map[string]string{}
		for _, d := range defs {
			m[d.name] = d.unit
		}
		return m
	}
	listed := func(ms []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, d := range ms {
			m[d.Name] = d.Unit
		}
		return m
	}
	if got, want := declared(endToEnd), listed(bj.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
	}
	if got, want := declared(perLayer), listed(bj.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
	}
	for _, w := range bj.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json declares workload %q; the benchmark runs %v", w.Name, workloads)
		}
	}
}

// TestShortRunsPrintDeclaredMetrics runs every workload briefly in both
// modes: each must pass its output checks and print exactly the
// declared metrics.
func TestShortRunsPrintDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl, trace), func(t *testing.T) {
				r := &run{workload: wl, seed: 5, seconds: 1, trace: trace, work: t.TempDir(),
					values: map[string]float64{}, record: map[string]any{}}
				defs := endToEnd
				if trace {
					r.tr = newTracer()
					defs = perLayer
				}
				var err error
				switch {
				case wl == wlService && trace:
					err = r.serviceTrace()
				case wl == wlService:
					err = r.serviceRun()
				case trace:
					err = r.cliTrace()
				default:
					err = r.cliRun()
				}
				if err != nil {
					t.Fatal(err)
				}
				out := r.outcome()
				if !out.Correct {
					t.Fatalf("run not correct: %v", r.tally.problems)
				}
				if len(out.Metrics) != len(defs) {
					t.Fatalf("printed %d metrics, declared %d", len(out.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := out.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s missing or with unit %q", d.name, m.Unit)
					}
				}
			})
		}
	}
}
