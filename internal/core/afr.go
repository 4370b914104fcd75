package core

import (
	"sort"

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
	Events map[failmodel.FailureType]int
	// AFR is Events/DiskYears per type (a fraction per disk-year; multiply
	// by 100 for the percentages the paper plots).
	AFR map[failmodel.FailureType]float64
}

// TotalEvents sums events across failure types.
func (b Breakdown) TotalEvents() int {
	total := 0
	for _, n := range b.Events {
		total += n
	}
	return total
}

// TotalAFR sums the per-type AFRs — the full bar height in Figure 4.
// The sum iterates failure types in their fixed declaration order, not
// map order: float addition is not associative, so ranging over the
// map would make the low-order bits run-to-run nondeterministic (the
// sweep engine compares trial metrics bit-for-bit and emits them at
// full precision).
func (b Breakdown) TotalAFR() float64 {
	total := 0.0
	for _, t := range failmodel.Types {
		total += b.AFR[t]
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
	groupOf := make(map[int]string, len(ds.Fleet.Systems)) // system ID -> label
	byLabel := make(map[string]*Breakdown)

	for _, s := range ds.Fleet.Systems {
		if !fl.admitsSystem(s) {
			continue
		}
		label, ok := key(s)
		if !ok {
			continue
		}
		groupOf[s.ID] = label
		b := byLabel[label]
		if b == nil {
			b = &Breakdown{Label: label, Events: make(map[failmodel.FailureType]int), AFR: make(map[failmodel.FailureType]float64)}
			byLabel[label] = b
		}
		b.Systems++
		b.Shelves += len(s.Shelves)
		b.Groups += len(s.RAIDGroups)
	}

	for _, d := range ds.Fleet.Disks {
		label, ok := groupOf[d.System]
		if !ok {
			continue
		}
		b := byLabel[label]
		b.Disks++
		b.DiskYears += d.ResidencyYears()
	}

	for _, e := range ds.Events {
		label, ok := groupOf[e.System]
		if !ok || !fl.admitsEvent(e) {
			continue
		}
		byLabel[label].Events[e.Type]++
	}

	// Iterate labels in sorted order rather than map order: the output
	// order is part of the byte-determinism contract, and a non-stable
	// sort over map-ordered elements would depend on label uniqueness.
	labels := make([]string, 0, len(byLabel))
	for label := range byLabel {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	out := make([]Breakdown, 0, len(byLabel))
	for _, label := range labels {
		b := byLabel[label]
		if b.DiskYears > 0 {
			for _, t := range failmodel.Types {
				b.AFR[t] = float64(b.Events[t]) / b.DiskYears
			}
		}
		out = append(out, *b)
	}
	return out
}

// AFRByClass computes the Figure 4 breakdown: one bar per system class.
// Bars come back in class order, not alphabetical.
func (ds *Dataset) AFRByClass(fl Filter) []Breakdown {
	bs := ds.AFRByGroup(func(s *fleet.System) (string, bool) {
		return s.Class.String(), true
	}, fl)
	order := map[string]int{}
	for i, c := range fleet.Classes {
		order[c.String()] = i
	}
	sort.Slice(bs, func(i, j int) bool { return order[bs[i].Label] < order[bs[j].Label] })
	return bs
}

// AFRByDiskModel computes one Figure 5 panel: AFR per disk model for
// systems of the given class using the given shelf model, sorted by
// model name.
func (ds *Dataset) AFRByDiskModel(class fleet.SystemClass, shelf fleet.ShelfModel, fl Filter) []Breakdown {
	return ds.AFRByGroup(func(s *fleet.System) (string, bool) {
		if s.Class != class || s.ShelfModel != shelf {
			return "", false
		}
		return "Disk " + s.DiskModel.String(), true
	}, fl)
}

// AFRByShelfModel computes one Figure 6 panel: AFR per shelf enclosure
// model for systems of the given class using the given disk model.
func (ds *Dataset) AFRByShelfModel(class fleet.SystemClass, disk fleet.DiskModel, fl Filter) []Breakdown {
	return ds.AFRByGroup(func(s *fleet.System) (string, bool) {
		if s.Class != class || s.DiskModel != disk {
			return "", false
		}
		return "Shelf Enclosure Model " + string(s.ShelfModel), true
	}, fl)
}

// AFRByPathConfig computes one Figure 7 panel: AFR for single-path vs
// dual-path subsystems of the given class. The single-path group sorts
// first, matching the paper's bar order.
func (ds *Dataset) AFRByPathConfig(class fleet.SystemClass, fl Filter) []Breakdown {
	bs := ds.AFRByGroup(func(s *fleet.System) (string, bool) {
		if s.Class != class {
			return "", false
		}
		if s.Paths == fleet.DualPath {
			return "Dual Paths", true
		}
		return "Single Path", true
	}, fl)
	sort.Slice(bs, func(i, j int) bool { return bs[i].Label > bs[j].Label }) // "Single Path" > "Dual Paths"
	return bs
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
