package core

import (
	"math"
	"testing"

	"storagesubsys/internal/failmodel"
)

// population is what a set of breakdowns adds up to.
type population struct {
	Events                          [failmodel.NumTypes]int
	Systems, Shelves, Disks, Groups int
	DiskYears                       float64
}

func (p *population) add(bs ...Breakdown) {
	for _, b := range bs {
		for t, n := range b.Events {
			p.Events[t] += n
		}
		p.Systems += b.Systems
		p.Shelves += b.Shelves
		p.Disks += b.Disks
		p.Groups += b.Groups
		p.DiskYears += b.DiskYears
	}
}

// TestAnalysisConservesTotals checks the conservation invariant on
// every reference trial, direct and mined: summed over the disk-model
// grouping, over the environment grouping, and over the class bars
// plus the family-H population, the visible events of each type, the
// systems, shelves, disks and RAID groups, and the exposure equal the
// dataset and fleet totals. Exposure is summed in another order, so it
// agrees to rounding.
func TestAnalysisConservesTotals(t *testing.T) {
	for _, fx := range referenceDatasets(t) {
		ds := fx.ds
		f := ds.Fleet
		want := population{Systems: len(f.Systems), Shelves: len(f.Shelves), Disks: len(f.Disks), Groups: len(f.Groups)}
		for _, e := range ds.Events {
			if e.Visible() {
				want.Events[e.Type]++
			}
		}
		for _, d := range f.Disks {
			want.DiskYears += d.ResidencyYears()
		}

		a := ds.Analyze()
		familyH, ok := lookup(a.FamilyH, "family H")
		if !ok {
			t.Fatalf("%s: no family-H population", fx.name)
		}
		var byModel, byEnv, byClass population
		byModel.add(a.ByDiskModel...)
		byEnv.add(ds.foldOne(byEnvironment, Filter{})...)
		byClass.add(a.ByClass...)
		byClass.add(familyH)
		for _, got := range []struct {
			name string
			p    population
		}{{"disk model", byModel}, {"environment", byEnv}, {"class + family H", byClass}} {
			years := got.p.DiskYears
			got.p.DiskYears = want.DiskYears
			if got.p != want || math.Abs(years-want.DiskYears) > 1e-9*want.DiskYears {
				t.Errorf("%s: %s grouping sums to %+v (exposure %v), want %+v", fx.name, got.name, got.p, years, want)
			}
		}
	}
}

// TestAnalyzeAllocBudget pins one trial's analysis and Findings 1-11
// on the 5%-scale calibration dataset to at most 4,500 allocations, a
// tenth of what the map-based analysis took (about 45,000).
func TestAnalyzeAllocBudget(t *testing.T) {
	ds := dataset(t)
	allocs := testing.AllocsPerRun(3, func() { ds.Analyze().Findings() })
	t.Logf("Analyze().Findings(): %.0f allocs", allocs)
	if allocs > 4500 {
		t.Errorf("Analyze().Findings() allocates %.0f times, budget 4500", allocs)
	}
}
