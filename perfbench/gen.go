package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"

	"storagesubsys/internal/scenario"
	"storagesubsys/internal/stats"
	"storagesubsys/internal/sweep"
)

// Everything a workload run feeds the program is generated here from
// the workload seed alone, so the same seed gives byte-identical
// inputs (TestGeneratedInputsDeterministic).

// Workload sizes, fixed once for the reference machine (2-core Xeon,
// see BENCHMARK.json) and never recomputed per run, so a faster
// program finishes the same work sooner instead of doing more of it.
const (
	cliScale = 0.05
	// The trials a CLI run asks for per second of --seconds:
	// trials-steady runs both smoke scenarios concurrently on its two
	// workers; mine-logs is bound by the worker that runs the mined
	// scenario's trials.
	steadyTrialsPerSecond = 10.5
	mineTrialsPerSecond   = 7.5

	// jobRate is the sweepd-jobs open-loop arrival rate: about a
	// quarter of the job mix's saturation throughput on a quiet host
	// (~29 jobs/s), because a busy neighbour on a shared host can halve
	// that capacity for minutes, and at half load such a run backlogs.
	jobRate     = 8.0
	jobScale    = 0.002
	hotSeeds    = 4    // seeds shared by most jobs, so the fleet cache hits
	freshShare  = 0.25 // share of jobs on a never-seen seed (cache miss)
	deltaShare  = 0.33 // share of jobs asking for CRN paired deltas
	reportShare = 0.25 // share of jobs whose client also fetches /report
)

// rng returns the generator for one input stream of a workload seed.
func rng(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// sweepSeed derives the sweep seed a CLI workload runs under.
func sweepSeed(seed int64) int64 {
	return 1 + rng(seed, 1).Int64N(1<<31-1)
}

func encodeSpec(spec scenario.Spec) []byte {
	data, err := json.Marshal(spec)
	if err != nil {
		panic("perfbench: encoding a generated spec: " + err.Error()) // plain data always encodes
	}
	return data
}

// cliSpec generates the scenario file of a CLI workload: the smoke
// grid with findings for trials-steady, the mine grid for mine-logs.
func cliSpec(workload string, seed int64, trials int) []byte {
	spec := scenario.Spec{
		Name:   workload,
		Trials: trials,
		Seed:   sweepSeed(seed),
		Scale:  cliScale,
	}
	switch workload {
	case wlSteady:
		spec.Description = "smoke grid with findings: sim and core dominate"
		spec.Findings = true
		spec.Scenarios = []sweep.Scenario{{Name: "baseline"}, {Name: "disk-afr-x2", DiskAFRMult: 2}}
	case wlMine:
		spec.Description = "mine grid: the autosupport log pipeline dominates"
		spec.Scenarios = []sweep.Scenario{{Name: "baseline"}, {Name: "mined", Mine: true}}
	default:
		panic("perfbench: no CLI spec for workload " + workload)
	}
	return encodeSpec(spec)
}

// cliTrials sizes a CLI run of the given length in trials per
// scenario (two scenarios per grid).
func cliTrials(workload string, seconds float64) int {
	rate := steadyTrialsPerSecond
	if workload == wlMine {
		rate = mineTrialsPerSecond
	}
	n := int(rate * seconds / 2)
	if n < 2 {
		n = 2
	}
	return n
}

// jobPlan is one sweepd-jobs submission: the scenario file and whether
// the client also fetches the rendered report.
type jobPlan struct {
	Spec   []byte
	Report bool
}

// opsScenarios is the menu job grids draw from: ops dimensions that
// change the fleet topology (so the fleet cache keys differ) and ones
// that only change the failure model (so they share the baseline's
// fleet).
var opsScenarios = []sweep.Scenario{
	{Name: "young-fleet", InstallSkew: 0.5},
	{Name: "old-fleet", InstallSkew: -0.5},
	{Name: "churn-x4", ChurnMult: 4},
	{Name: "sparse-shelves", SparseShelfFrac: 0.5},
	{Name: "slow-repair", RepairLagMult: 8, RepairLagSigma: 1.0},
	{Name: "disk-afr-x2", DiskAFRMult: 2},
	{Name: "pi-rate-x2", PIRateMult: 2},
}

// jobPlans generates n job submissions. Seeds come from a small hot
// set except for a steady share of fresh ones, each used once.
func jobPlans(seed int64, n int) []jobPlan {
	r := rng(seed, 2)
	hot := make([]int64, hotSeeds)
	for i := range hot {
		hot[i] = 1 + r.Int64N(1<<31-1)
	}
	plans := make([]jobPlan, n)
	for i := range plans {
		spec := scenario.Spec{
			Name:   fmt.Sprintf("job-%d", i),
			Trials: []int{2, 4, 6}[r.IntN(3)],
			Scale:  jobScale,
			Deltas: r.Float64() < deltaShare,
		}
		if r.Float64() < freshShare {
			spec.Seed = 1<<31 + int64(i) // disjoint from the hot range: a guaranteed miss
		} else {
			spec.Seed = hot[r.IntN(hotSeeds)]
		}
		spec.Scenarios = []sweep.Scenario{{Name: "baseline"}}
		extra := 1 + r.IntN(2)
		for _, k := range r.Perm(len(opsScenarios))[:extra] {
			spec.Scenarios = append(spec.Scenarios, opsScenarios[k])
		}
		plans[i] = jobPlan{Spec: encodeSpec(spec), Report: r.Float64() < reportShare}
	}
	return plans
}

// warmSpec is the job every sweepd set-up runs before the timed phase.
func warmSpec(seed int64) []byte {
	return encodeSpec(scenario.Spec{
		Name: "warm", Trials: 4, Scale: jobScale, Seed: sweepSeed(seed),
		Scenarios: []sweep.Scenario{{Name: "baseline"}, opsScenarios[0]},
	})
}

// sample picks k distinct indices below n for the output checks and
// the traced replay, in ascending order.
func sample(seed int64, stream uint64, n, k int) []int {
	if k > n {
		k = n
	}
	idx := rng(seed, stream).Perm(n)[:k]
	sort.Ints(idx)
	return idx
}

// trialSeed is the failure-history seed of one trial under the sweep
// engine's derivation (sweep.Execute, variance mode none): trial 0
// replays the canonical single-run seed, later trials split a keyed
// stream. The traced replay re-runs trials from these seeds; its
// replay check proves they are the engine's.
func trialSeed(seed int64, trial int) int64 {
	if trial == 0 {
		return seed + 1
	}
	r := stats.NewRNG(seed)
	c := r.Split(0x57 | uint64(trial)<<8)
	return int64(c.Uint64())
}
