package sweep

import (
	"fmt"
	"math"
	"testing"

	"storagesubsys/internal/core"
	"storagesubsys/internal/experiments"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
)

// standaloneMetrics computes every Metrics entry from the standalone
// core.Dataset methods, each called on its own the way a layer-by-layer
// replay calls them, rather than from the shared core.Analysis the
// engine reads.
func standaloneMetrics(ds *core.Dataset) map[string]float64 {
	m := map[string]float64{"mined_dropped": math.NaN()}
	visible := 0
	for _, e := range ds.Events {
		if e.Visible() {
			visible++
		}
	}
	m["events_visible"] = float64(visible)

	byClass := ds.AFRByClass(core.Filter{ExcludeFamily: fleet.ProblemFamily})
	for _, c := range fleet.Classes {
		suffix := map[fleet.SystemClass]string{fleet.NearLine: "nearline", fleet.LowEnd: "lowend", fleet.MidRange: "midrange", fleet.HighEnd: "highend"}[c]
		total, disk, pi, diskAFR := math.NaN(), math.NaN(), math.NaN(), math.NaN()
		for _, b := range byClass {
			if b.Label == c.String() && b.DiskYears != 0 {
				total, disk, pi = b.TotalAFR(), b.Share(failmodel.DiskFailure), b.Share(failmodel.PhysicalInterconnect)
				diskAFR = b.AFR[failmodel.DiskFailure]
			}
		}
		m["afr_total_"+suffix] = total
		m["disk_share_"+suffix] = disk
		m["pi_share_"+suffix] = pi
		if c == fleet.NearLine || c == fleet.LowEnd {
			m["disk_afr_"+suffix] = diskAFR
		}
	}

	var h, rest core.Breakdown
	var okH, okRest bool
	for _, b := range ds.AFRByGroup(func(s *fleet.System) (string, bool) {
		if s.Class == fleet.NearLine {
			return "", false
		}
		if s.DiskModel.Family == fleet.ProblemFamily {
			return "H", true
		}
		return "other", true
	}, core.Filter{}) {
		if b.Label == "H" {
			h, okH = b, true
		} else {
			rest, okRest = b, true
		}
	}
	m["family_h_afr_ratio"] = math.NaN()
	if okH && okRest && rest.TotalAFR() != 0 {
		m["family_h_afr_ratio"] = h.TotalAFR() / rest.TotalAFR()
	}

	shelf := ds.Gaps(core.ByShelf, core.Filter{})
	rg := ds.Gaps(core.ByRAIDGroup, core.Filter{})
	m["burst_shelf_overall"] = shelf.OverallFractionWithin(core.BurstThreshold)
	m["burst_rg_overall"] = rg.OverallFractionWithin(core.BurstThreshold)
	m["burst_shelf_disk"] = shelf.FractionWithin(failmodel.DiskFailure, core.BurstThreshold)
	m["burst_shelf_pi"] = shelf.FractionWithin(failmodel.PhysicalInterconnect, core.BurstThreshold)

	for _, r := range ds.Correlation(core.ByShelf, core.CorrelationOptions{}) {
		switch r.Type {
		case failmodel.DiskFailure:
			m["corr_disk_shelf"] = r.Ratio
		case failmodel.PhysicalInterconnect:
			m["corr_pi_shelf"] = r.Ratio
		}
	}

	pass := 0
	for _, fd := range ds.EvaluateFindings() {
		if fd.Pass {
			pass++
		}
	}
	m["findings_pass"] = float64(pass)

	sp := ds.EnvAFRSpread()
	m["afr_spread_disk"], m["afr_spread_subsys"] = sp.DiskRelStd, sp.SubsysRelStd
	if sp.Models == 0 {
		m["afr_spread_disk"], m["afr_spread_subsys"] = math.NaN(), math.NaN()
	}
	m["afr_capacity_ratio"], _ = ds.CapacityAFRMeanRatio()
	m["shelf_model_pi_delta"] = ds.ShelfModelPIDelta()
	m["multipath_total_reduction"], m["multipath_pi_reduction"] = ds.MultipathReductions()
	return m
}

// TestTrialVectorMatchesStandaloneMethods pins the single-definition
// contract: the engine's metric vector, built from one shared
// core.Analysis per trial, equals bit for bit what the standalone
// Dataset methods compute one at a time, and findings_pass counts the
// passing verdicts of Dataset.EvaluateFindings — over several fleet
// topologies and seeds.
func TestTrialVectorMatchesStandaloneMethods(t *testing.T) {
	fleets := []struct {
		name string
		key  FleetKey
	}{
		{"baseline", FleetKey{Scale: 0.02}},
		{"span-1", FleetKey{Scale: 0.02, Span: 1}},
		{"churn-x4", FleetKey{Scale: 0.02, Churn: 4}},
		{"sparse-shelves", FleetKey{Scale: 0.02, Sparse: 0.5}},
	}
	for _, fc := range fleets {
		for _, seed := range []int64{7, 42} {
			t.Run(fmt.Sprintf("%s/seed-%d", fc.name, seed), func(t *testing.T) {
				f := BuildFleet(fc.key, seed)
				env := experiments.RunTrial(experiments.Config{Scale: 0.02, Seed: seed, Workers: 1}, f, trialSeed(seed, 0), nil)
				got := trialVector(env, true, nil)
				want := standaloneMetrics(env.Dataset)
				for i, md := range Metrics {
					w, ok := want[md.Name]
					if !ok {
						t.Fatalf("metric %s has no standalone computation", md.Name)
					}
					if g := got[i]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
						t.Errorf("%s: engine %v (bits %#x), standalone %v (bits %#x)", md.Name, g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			})
		}
	}
}
