package core

import (
	"fmt"
	"slices"
	"strings"

	"storagesubsys/internal/fleet"
)

// Every AFR breakdown is one columnar fold. A grouping gives each
// system a dense integer group id; one pass over the fleet's disks adds
// each disk's exposure to its group in every grouping, and one pass
// over the events tallies them per group and failure type. Disks are
// visited in Fleet.Disks order, so a group sums its exposure in the
// same order however many groupings share the pass, and its DiskYears
// does not depend on what else is folded alongside it.

// A grouping is one breakdown family of the fold.
type grouping struct {
	fl     Filter
	of     []int32     // system ID -> group id; -1 leaves the system out
	groups []Breakdown // by group id

	// A built-in grouping resolves each system profile's group once.
	spec      groupSpec
	byKey     map[profile]int32 // spec key -> group id
	byProfile []int32           // profile id -> group id, -1 when left out
}

// newGrouping returns a grouping with no system assigned.
func newGrouping(spec groupSpec, fl Filter, systems int) *grouping {
	of := make([]int32, systems)
	for i := range of {
		of[i] = -1
	}
	return &grouping{fl: fl, of: of, spec: spec}
}

// newGroup adds an empty group and returns its id.
func (g *grouping) newGroup(label string) int32 {
	g.groups = append(g.groups, Breakdown{Label: label})
	return int32(len(g.groups) - 1)
}

// add puts system s in group id and counts its population.
func (g *grouping) add(s *fleet.System, id int32) {
	g.of[s.ID] = id
	b := &g.groups[id]
	b.Systems++
	b.Shelves += len(s.Shelves)
	b.Groups += len(s.RAIDGroups)
}

// sorted returns the groups in the spec's order, by label by default.
// A group no system joined is left out: a built-in grouping resolves a
// profile's group before the filter sees the profile's systems.
func (g *grouping) sorted() []Breakdown {
	order := g.spec.order
	if order == nil {
		order = byLabel
	}
	bs := slices.DeleteFunc(g.groups, func(b Breakdown) bool { return b.Systems == 0 })
	slices.SortFunc(bs, order)
	return bs
}

func byLabel(a, b Breakdown) int { return strings.Compare(a.Label, b.Label) }

// fold fills the groupings' exposure and event tallies, then their
// AFRs. The systems must already be assigned to groups.
//
//detlint:hotpath
func (ds *Dataset) fold(gs []*grouping) {
	for _, d := range ds.Fleet.Disks {
		years := d.ResidencyYears()
		for _, g := range gs {
			if id := g.of[d.System]; id >= 0 {
				b := &g.groups[id]
				b.Disks++
				b.DiskYears += years
			}
		}
	}
	for i := range ds.Events {
		e := &ds.Events[i]
		for _, g := range gs {
			if id := g.of[e.System]; id >= 0 && g.fl.admitsEvent(*e) {
				g.groups[id].Events[e.Type]++
			}
		}
	}
	for _, g := range gs {
		for i := range g.groups {
			b := &g.groups[i]
			if b.DiskYears > 0 {
				for t, n := range b.Events {
					b.AFR[t] = float64(n) / b.DiskYears
				}
			}
		}
	}
}

// profile is what the built-in groupings read off a system. Systems
// with one profile share a group in every built-in grouping.
type profile struct {
	model fleet.DiskModel
	shelf fleet.ShelfModel
	class fleet.SystemClass
	paths fleet.PathConfig
}

// A groupSpec defines a built-in grouping: key projects a profile onto
// the fields that name its group, or reports false to leave the
// profile out; label names the group of a key; order, when set,
// replaces the label order of the groups.
type groupSpec struct {
	key   func(p profile) (profile, bool)
	label func(k profile) string
	order func(a, b Breakdown) int
}

// foldBuiltin assigns every system to its group in each built-in
// grouping, resolving a profile's groups the first time it appears,
// and folds them all in one pass.
func (ds *Dataset) foldBuiltin(gs ...*grouping) {
	profiles := make(map[profile]int32)
	for _, s := range ds.Fleet.Systems {
		p := profile{model: s.DiskModel, shelf: s.ShelfModel, class: s.Class, paths: s.Paths}
		id, seen := profiles[p]
		if !seen {
			id = int32(len(profiles))
			profiles[p] = id
			for _, g := range gs {
				g.byProfile = append(g.byProfile, g.resolve(p))
			}
		}
		for _, g := range gs {
			if gid := g.byProfile[id]; gid >= 0 && g.fl.admitsSystem(s) {
				g.add(s, gid)
			}
		}
	}
	ds.fold(gs)
}

// resolve returns the group of profile p, creating it on first sight
// of its key, or -1 when the grouping leaves p out.
func (g *grouping) resolve(p profile) int32 {
	k, ok := g.spec.key(p)
	if !ok {
		return -1
	}
	if g.byKey == nil {
		g.byKey = make(map[profile]int32)
	}
	id, seen := g.byKey[k]
	if !seen {
		id = g.newGroup(g.spec.label(k))
		g.byKey[k] = id
	}
	return id
}

// foldOne folds a single built-in grouping and returns its sorted
// groups.
func (ds *Dataset) foldOne(spec groupSpec, fl Filter) []Breakdown {
	g := newGrouping(spec, fl, len(ds.Fleet.Systems))
	ds.foldBuiltin(g)
	return g.sorted()
}

// modelKey keeps the fields a disk model's label prints, so models
// that print alike share a group as they share a label.
func modelKey(m fleet.DiskModel) fleet.DiskModel {
	return fleet.DiskModel{Family: m.Family, Capacity: m.Capacity}
}

// The built-in groupings.
var (
	// byClass is one bar per system class (Figure 4).
	byClass = groupSpec{
		key:   func(p profile) (profile, bool) { return profile{class: p.class}, true },
		label: func(k profile) string { return k.class.String() },
		order: func(a, b Breakdown) int {
			if d := classRank(a.Label) - classRank(b.Label); d != 0 {
				return d
			}
			return byLabel(a, b)
		},
	}
	// byFamilyH compares family-H systems with the rest within the
	// classes that deploy family H (all but near-line), so the class
	// mix does not confound Finding 3.
	byFamilyH = groupSpec{
		key: func(p profile) (profile, bool) {
			if p.class == fleet.NearLine {
				return profile{}, false
			}
			if p.model.Family == fleet.ProblemFamily {
				return profile{model: fleet.DiskModel{Family: fleet.ProblemFamily}}, true
			}
			return profile{}, true
		},
		label: func(k profile) string {
			if k.model.Family == fleet.ProblemFamily {
				return "family H"
			}
			return "other families"
		},
	}
	// byDiskModel is the whole fleet per disk model (Finding 5).
	byDiskModel = groupSpec{
		key:   func(p profile) (profile, bool) { return profile{model: modelKey(p.model)}, true },
		label: func(k profile) string { return k.model.String() },
	}
	// byEnvironment is one group per (disk model, class, shelf model)
	// environment (Finding 4). Labels lead with the disk model.
	byEnvironment = groupSpec{
		key: func(p profile) (profile, bool) {
			return profile{model: modelKey(p.model), class: p.class, shelf: p.shelf}, true
		},
		label: func(k profile) string { return fmt.Sprintf("%s|%s|%s", k.model, k.class, k.shelf) },
	}
)

// diskModelsIn groups the systems of one class and shelf model by disk
// model (a Figure 5 panel).
func diskModelsIn(class fleet.SystemClass, shelf fleet.ShelfModel) groupSpec {
	return groupSpec{
		key: func(p profile) (profile, bool) {
			return profile{model: modelKey(p.model)}, p.class == class && p.shelf == shelf
		},
		label: func(k profile) string { return "Disk " + k.model.String() },
	}
}

// shelfModelsIn groups the systems of one class and disk model by shelf
// enclosure model (a Figure 6 panel).
func shelfModelsIn(class fleet.SystemClass, disk fleet.DiskModel) groupSpec {
	return groupSpec{
		key: func(p profile) (profile, bool) {
			return profile{shelf: p.shelf}, p.class == class && p.model == disk
		},
		label: func(k profile) string { return "Shelf Enclosure Model " + string(k.shelf) },
	}
}

// pathConfigsIn groups the systems of one class by network redundancy
// (a Figure 7 panel).
func pathConfigsIn(class fleet.SystemClass) groupSpec {
	return groupSpec{
		key: func(p profile) (profile, bool) {
			if p.paths == fleet.DualPath {
				return profile{paths: fleet.DualPath}, p.class == class
			}
			return profile{}, p.class == class
		},
		label: func(k profile) string {
			if k.paths == fleet.DualPath {
				return "Dual Paths"
			}
			return "Single Path"
		},
		// The single-path bar comes first, matching the paper.
		order: func(a, b Breakdown) int { return byLabel(b, a) },
	}
}

// classRank is a class label's position in fleet.Classes (0 when the
// label names no class).
func classRank(label string) int {
	for i, c := range fleet.Classes {
		if c.String() == label {
			return i
		}
	}
	return 0
}

// shelfPanelGroupings are the Figure 6 panels' groupings, one per
// ShelfCompareModels entry.
func shelfPanelGroupings(systems int) []*grouping {
	gs := make([]*grouping, len(ShelfCompareModels))
	for i, m := range ShelfCompareModels {
		gs[i] = newGrouping(shelfModelsIn(fleet.LowEnd, m), Filter{}, systems)
	}
	return gs
}

// pathPanelGroupings are the Figure 7 panels' groupings (family H
// excluded), one per MultipathClasses entry.
func pathPanelGroupings(systems int) []*grouping {
	gs := make([]*grouping, len(MultipathClasses))
	for i, class := range MultipathClasses {
		gs[i] = newGrouping(pathConfigsIn(class), noFamilyH, systems)
	}
	return gs
}

// panels returns each grouping's sorted groups.
func panels(gs []*grouping) [][]Breakdown {
	out := make([][]Breakdown, len(gs))
	for i, g := range gs {
		out[i] = g.sorted()
	}
	return out
}
