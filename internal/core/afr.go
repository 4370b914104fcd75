package core

import (
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/stats"
)

// Breakdown is one group's annualized failure rates split by failure
// type — one bar of the paper's stacked-bar figures.
type Breakdown struct {
	// Label identifies the group ("Near-line", "Disk A-2", "Dual Paths", ...).
	Label string
	// Systems, Shelves, Disks and Groups are population counts for the
	// group; Disks counts disks ever installed (the Table 1 convention).
	Systems, Shelves, Disks, Groups int
	// DiskYears is the exact exposure: the sum of per-disk residency.
	DiskYears float64
	// Events counts filtered failure events per type.
	Events [failmodel.NumTypes]int
	// AFR is Events/DiskYears per type (a fraction per disk-year; multiply
	// by 100 for the percentages the paper plots); zero without exposure.
	AFR [failmodel.NumTypes]float64
}

// TotalEvents sums events across failure types.
func (b Breakdown) TotalEvents() int {
	total := 0
	for _, n := range b.Events {
		total += n
	}
	return total
}

// TotalAFR sums the per-type AFRs — the full bar height in Figure 4 —
// in failure type order, which pins the low-order bits of the sum (the
// sweep engine compares trial metrics bit-for-bit).
func (b Breakdown) TotalAFR() float64 {
	total := 0.0
	for _, afr := range b.AFR {
		total += afr
	}
	return total
}

// Share returns failure type t's fraction of the group's failures.
func (b Breakdown) Share(t failmodel.FailureType) float64 {
	total := b.TotalEvents()
	if total == 0 {
		return 0
	}
	return float64(b.Events[t]) / float64(total)
}

// CI returns a confidence interval for the group's AFR of type t at the
// given level (e.g. 0.995), using the Poisson-rate normal approximation
// — the error bars of Figures 6 and 7.
func (b Breakdown) CI(t failmodel.FailureType, level float64) stats.Interval {
	return stats.PoissonRateCI(b.Events[t], b.DiskYears, level)
}

// GroupKey assigns a system to a named group, or reports false to leave
// it out of the analysis.
type GroupKey func(*fleet.System) (string, bool)

// AFRByGroup computes per-group AFR breakdowns under the filter. Groups
// are returned sorted by label; group membership, exposure and event
// attribution are all by owning system.
func (ds *Dataset) AFRByGroup(key GroupKey, fl Filter) []Breakdown {
	g := newGrouping(groupSpec{}, fl, len(ds.Fleet.Systems))
	ids := make(map[string]int32)
	for _, s := range ds.Fleet.Systems {
		if !fl.admitsSystem(s) {
			continue
		}
		label, ok := key(s)
		if !ok {
			continue
		}
		id, seen := ids[label]
		if !seen {
			id = g.newGroup(label)
			ids[label] = id
		}
		g.add(s, id)
	}
	ds.fold([]*grouping{g})
	return g.sorted()
}

// AFRByClass computes the Figure 4 breakdown: one bar per system class.
// Bars come back in class order, not alphabetical.
func (ds *Dataset) AFRByClass(fl Filter) []Breakdown {
	return ds.foldOne(byClass, fl)
}

// AFRByDiskModel computes one Figure 5 panel: AFR per disk model for
// systems of the given class using the given shelf model, sorted by
// model name.
func (ds *Dataset) AFRByDiskModel(class fleet.SystemClass, shelf fleet.ShelfModel, fl Filter) []Breakdown {
	return ds.foldOne(diskModelsIn(class, shelf), fl)
}

// AFRByShelfModel computes one Figure 6 panel: AFR per shelf enclosure
// model for systems of the given class using the given disk model.
func (ds *Dataset) AFRByShelfModel(class fleet.SystemClass, disk fleet.DiskModel, fl Filter) []Breakdown {
	return ds.foldOne(shelfModelsIn(class, disk), fl)
}

// AFRByPathConfig computes one Figure 7 panel: AFR for single-path vs
// dual-path subsystems of the given class. The single-path group sorts
// first, matching the paper's bar order.
func (ds *Dataset) AFRByPathConfig(class fleet.SystemClass, fl Filter) []Breakdown {
	return ds.foldOne(pathConfigsIn(class), fl)
}

// CompareAFR tests whether two groups' AFRs for failure type t differ,
// using the Poisson rate test — the significance machinery behind
// Figures 6 and 7 ("significant at the 99.5% confidence interval").
func CompareAFR(a, b Breakdown, t failmodel.FailureType) stats.TTestResult {
	return stats.PoissonRateTest(a.Events[t], a.DiskYears, b.Events[t], b.DiskYears)
}

// Table1Row is one row of the paper's Table 1 overview.
type Table1Row struct {
	Class        fleet.SystemClass
	Systems      int
	Shelves      int
	Disks        int
	DiskType     string
	RAIDGroups   int
	Multipathing string
	Events       map[failmodel.FailureType]int
}

// Table1 regenerates the paper's Table 1: per-class population and
// failure event counts (visible failures only, as the paper counts).
func (ds *Dataset) Table1() []Table1Row {
	rows := make([]Table1Row, 0, len(fleet.Classes))
	byClass := make(map[fleet.SystemClass]*Table1Row)
	for _, c := range fleet.Classes {
		rows = append(rows, Table1Row{Class: c, Events: make(map[failmodel.FailureType]int)})
		byClass[c] = &rows[len(rows)-1]
	}
	for _, s := range ds.Fleet.Systems {
		row := byClass[s.Class]
		row.Systems++
		row.Shelves += len(s.Shelves)
		row.RAIDGroups += len(s.RAIDGroups)
		if s.DiskModel.Type == fleet.SATA {
			row.DiskType = "SATA"
		} else {
			row.DiskType = "FC"
		}
		if s.Paths == fleet.DualPath {
			row.Multipathing = "single-path dual-path"
		} else if row.Multipathing == "" {
			row.Multipathing = "single-path"
		}
	}
	for _, d := range ds.Fleet.Disks {
		byClass[ds.Fleet.Systems[d.System].Class].Disks++
	}
	for _, e := range ds.Events {
		if e.Visible() {
			byClass[ds.Fleet.Systems[e.System].Class].Events[e.Type]++
		}
	}
	return rows
}
