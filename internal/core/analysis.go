package core

import "storagesubsys/internal/fleet"

// Analysis is a dataset's shared per-trial analysis: every breakdown,
// gap analysis and correlation the paper statistics and Findings 1–11
// read, each computed once. The sweep's metric vector and the findings
// verdicts both read it. Each derived statistic is one function of its
// breakdowns, which an Analysis method and the standalone Dataset
// method of the same name both call, so the two paths agree bit for
// bit. Fields are read-only.
type Analysis struct {
	ds *Dataset
	// ByClass holds the Figure 4(b) bars (family H excluded) in class
	// order; FamilyH splits the classes that deploy family H by whether
	// a system uses it (Finding 3); ByDiskModel is the whole fleet per
	// disk model (Finding 5).
	ByClass, FamilyH, ByDiskModel []Breakdown
	Env                           EnvSpread // Finding 4
	// ShelfPanels are the Figure 6 panels, one per ShelfCompareModels
	// entry; PathPanels the Figure 7 panels (family H excluded), one per
	// MultipathClasses entry.
	ShelfPanels, PathPanels  [][]Breakdown
	ShelfGaps, RAIDGroupGaps *GapAnalysis        // Figure 9
	ShelfCorrelation         []CorrelationResult // Figure 10(a)
}

// noFamilyH is the Figure 4(b) and Figure 7 filter, which leaves out
// the problematic disk family.
var noFamilyH = Filter{ExcludeFamily: fleet.ProblemFamily}

// Analyze computes the dataset's shared analysis. Every breakdown
// comes from one fold over the fleet's disks and the events.
func (ds *Dataset) Analyze() *Analysis {
	n := len(ds.Fleet.Systems)
	class := newGrouping(byClass, noFamilyH, n)
	familyH := newGrouping(byFamilyH, Filter{}, n)
	models := newGrouping(byDiskModel, Filter{}, n)
	env := newGrouping(byEnvironment, Filter{}, n)
	shelf := shelfPanelGroupings(n)
	path := pathPanelGroupings(n)
	gs := append([]*grouping{class, familyH, models, env}, shelf...)
	ds.foldBuiltin(append(gs, path...)...)
	return &Analysis{
		ds:               ds,
		ByClass:          class.sorted(),
		FamilyH:          familyH.sorted(),
		ByDiskModel:      models.sorted(),
		Env:              envSpread(env.sorted()),
		ShelfPanels:      panels(shelf),
		PathPanels:       panels(path),
		ShelfGaps:        ds.Gaps(ByShelf, Filter{}),
		RAIDGroupGaps:    ds.Gaps(ByRAIDGroup, Filter{}),
		ShelfCorrelation: ds.Correlation(ByShelf, CorrelationOptions{}),
	}
}

// lookup returns the breakdown with the given label.
func lookup(bs []Breakdown, label string) (Breakdown, bool) {
	for _, b := range bs {
		if b.Label == label {
			return b, true
		}
	}
	return Breakdown{}, false
}

// Class returns class c's Figure 4(b) bar, if the class has systems.
func (a *Analysis) Class(c fleet.SystemClass) (Breakdown, bool) {
	return lookup(a.ByClass, c.String())
}
