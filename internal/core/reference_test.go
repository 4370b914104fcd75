package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"storagesubsys/internal/autosupport"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
	"storagesubsys/internal/simtime"
	"storagesubsys/internal/stats"
)

// The map-based analysis the columnar fold replaced, kept verbatim
// (renamed, methods turned into functions) as the oracle the
// differential tests below hold the fold to, bit for bit.

type refBreakdown struct {
	Label                           string
	Systems, Shelves, Disks, Groups int
	DiskYears                       float64
	Events                          map[failmodel.FailureType]int
	AFR                             map[failmodel.FailureType]float64
}

func (b refBreakdown) TotalAFR() float64 {
	total := 0.0
	for _, t := range failmodel.Types {
		total += b.AFR[t]
	}
	return total
}

func refAFRByGroup(ds *Dataset, key GroupKey, fl Filter) []refBreakdown {
	groupOf := make(map[int]string, len(ds.Fleet.Systems)) // system ID -> label
	byLabel := make(map[string]*refBreakdown)

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
			b = &refBreakdown{Label: label, Events: make(map[failmodel.FailureType]int), AFR: make(map[failmodel.FailureType]float64)}
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

	labels := make([]string, 0, len(byLabel))
	for label := range byLabel {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	out := make([]refBreakdown, 0, len(byLabel))
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

func refAFRByClass(ds *Dataset, fl Filter) []refBreakdown {
	bs := refAFRByGroup(ds, func(s *fleet.System) (string, bool) {
		return s.Class.String(), true
	}, fl)
	order := map[string]int{}
	for i, c := range fleet.Classes {
		order[c.String()] = i
	}
	sort.Slice(bs, func(i, j int) bool { return order[bs[i].Label] < order[bs[j].Label] })
	return bs
}

func refAFRByDiskModel(ds *Dataset, class fleet.SystemClass, shelf fleet.ShelfModel, fl Filter) []refBreakdown {
	return refAFRByGroup(ds, func(s *fleet.System) (string, bool) {
		if s.Class != class || s.ShelfModel != shelf {
			return "", false
		}
		return "Disk " + s.DiskModel.String(), true
	}, fl)
}

func refAFRByShelfModel(ds *Dataset, class fleet.SystemClass, disk fleet.DiskModel, fl Filter) []refBreakdown {
	return refAFRByGroup(ds, func(s *fleet.System) (string, bool) {
		if s.Class != class || s.DiskModel != disk {
			return "", false
		}
		return "Shelf Enclosure Model " + string(s.ShelfModel), true
	}, fl)
}

func refAFRByPathConfig(ds *Dataset, class fleet.SystemClass, fl Filter) []refBreakdown {
	bs := refAFRByGroup(ds, func(s *fleet.System) (string, bool) {
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

func refFamilyHKey(s *fleet.System) (string, bool) {
	if s.Class == fleet.NearLine {
		return "", false
	}
	if s.DiskModel.Family == fleet.ProblemFamily {
		return "family H", true
	}
	return "other families", true
}

func refDiskModelKey(s *fleet.System) (string, bool) { return s.DiskModel.String(), true }

func refEnvAFRSpread(ds *Dataset) EnvSpread {
	bs := refAFRByGroup(ds, func(s *fleet.System) (string, bool) {
		return fmt.Sprintf("%s|%s|%s", s.DiskModel, s.Class, s.ShelfModel), true
	}, Filter{})
	var diskSpreads, totalSpreads, disks, totals []float64
	flush := func() { // close one model's environments
		if len(disks) >= 2 {
			diskSpreads = append(diskSpreads, relStd(disks))
			totalSpreads = append(totalSpreads, relStd(totals))
		}
		disks, totals = disks[:0], totals[:0]
	}
	model := ""
	for _, b := range bs {
		if b.DiskYears < 200 { // skip tiny environments: AFR too noisy
			continue
		}
		if m, _, _ := strings.Cut(b.Label, "|"); m != model {
			flush()
			model = m
		}
		disks = append(disks, b.AFR[failmodel.DiskFailure])
		totals = append(totals, b.TotalAFR())
	}
	flush()
	if len(diskSpreads) == 0 {
		return EnvSpread{DiskRelStd: math.NaN(), SubsysRelStd: math.NaN()}
	}
	return EnvSpread{
		DiskRelStd:   stats.Mean(diskSpreads),
		SubsysRelStd: stats.Mean(totalSpreads),
		Models:       len(diskSpreads),
	}
}

type refGapAnalysis struct {
	Scope      Scope
	PerType    map[failmodel.FailureType]*stats.ECDF
	Overall    *stats.ECDF
	DiskFits   []stats.FitResult
	Containers int
}

func refGaps(ds *Dataset, scope Scope, fl Filter) *refGapAnalysis {
	g := &refGapAnalysis{
		Scope:   scope,
		PerType: make(map[failmodel.FailureType]*stats.ECDF),
	}

	container := func(e failmodel.Event) int {
		if scope == ByRAIDGroup {
			return e.Group
		}
		return e.Shelf
	}

	events := refSelectEvents(ds, fl)
	byContainer := make(map[int][]failmodel.Event)
	for _, e := range events {
		c := container(e)
		if c < 0 {
			continue // spare disks belong to no RAID group
		}
		byContainer[c] = append(byContainer[c], e)
	}

	containerIDs := make([]int, 0, len(byContainer))
	for c := range byContainer {
		containerIDs = append(containerIDs, c)
	}
	sort.Ints(containerIDs)

	perType := make(map[failmodel.FailureType][]float64)
	var overall []float64
	for _, c := range containerIDs {
		seq := byContainer[c]
		sort.Slice(seq, func(i, j int) bool { return seq[i].Detected < seq[j].Detected })
		if len(seq) >= 2 {
			g.Containers++
		}
		overall = append(overall, refSequenceGaps(seq)...)
		for _, t := range failmodel.Types {
			var typed []failmodel.Event
			for _, e := range seq {
				if e.Type == t {
					typed = append(typed, e)
				}
			}
			perType[t] = append(perType[t], refSequenceGaps(typed)...)
		}
	}

	g.Overall = stats.NewECDF(overall)
	for _, t := range failmodel.Types {
		g.PerType[t] = stats.NewECDF(perType[t])
	}

	if disk := perType[failmodel.DiskFailure]; len(disk) >= 8 {
		if fits, err := stats.FitAll(disk); err == nil {
			g.DiskFits = fits
		}
	}
	return g
}

func refSelectEvents(ds *Dataset, fl Filter) []failmodel.Event {
	admits := func(e failmodel.Event) bool {
		return fl.admitsEvent(e) && fl.admitsSystem(ds.Fleet.Systems[e.System])
	}
	n := 0
	for _, e := range ds.Events {
		if admits(e) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]failmodel.Event, 0, n)
	for _, e := range ds.Events {
		if admits(e) {
			out = append(out, e)
		}
	}
	return out
}

func refSequenceGaps(seq []failmodel.Event) []float64 {
	var gaps []float64
	havePrev := false
	var prev failmodel.Event
	for _, e := range seq {
		if havePrev && e.Disk == prev.Disk {
			continue // duplicate: same disk failing again
		}
		if havePrev {
			gap := float64(e.Detected - prev.Detected)
			if gap < 1 {
				gap = 1
			}
			gaps = append(gaps, gap)
		}
		prev = e
		havePrev = true
	}
	return gaps
}

func refCorrelation(ds *Dataset, scope Scope, opts CorrelationOptions) []CorrelationResult {
	window := opts.Window
	if window <= 0 {
		window = simtime.SecondsPerYear
	}
	fl := opts.Filter

	containers := make(map[int]simtime.Seconds)
	admit := func(id, system int) {
		sys := ds.Fleet.Systems[system]
		if fl.admitsSystem(sys) && simtime.StudyDuration-sys.Install >= window {
			containers[id] = sys.Install
		}
	}
	if scope == ByShelf {
		for _, sh := range ds.Fleet.Shelves {
			admit(sh.ID, sh.System)
		}
	} else {
		for _, g := range ds.Fleet.Groups {
			admit(g.ID, g.System)
		}
	}

	counts := make(map[int]*[4]int, len(containers))
	for _, e := range ds.Events {
		if !fl.admitsEvent(e) {
			continue
		}
		id := e.Shelf
		if scope == ByRAIDGroup {
			id = e.Group
			if id < 0 {
				continue
			}
		}
		start, ok := containers[id]
		if !ok || e.Detected < start || e.Detected >= start+window {
			continue
		}
		c := counts[id]
		if c == nil {
			c = new([4]int)
			counts[id] = c
		}
		c[int(e.Type)]++
	}

	n := len(containers)
	results := make([]CorrelationResult, 0, len(failmodel.Types))
	for _, t := range failmodel.Types {
		res := CorrelationResult{
			Type:        t,
			Scope:       scope,
			WindowYears: simtime.Years(window),
			Containers:  n,
		}
		for _, c := range counts {
			switch c[int(t)] {
			case 1:
				res.CountP1++
			case 2:
				res.CountP2++
			}
		}
		if n > 0 {
			res.P1 = float64(res.CountP1) / float64(n)
			res.P2 = float64(res.CountP2) / float64(n)
		}
		res.TheoreticalP2 = res.P1 * res.P1 / 2
		if res.TheoreticalP2 > 0 {
			res.Ratio = res.P2 / res.TheoreticalP2
		} else {
			res.Ratio = math.NaN()
		}
		res.P2CI = stats.ProportionCI(res.CountP2, n, 0.995)
		res.Test = proportionVsTheory(res.CountP2, n, res.TheoreticalP2)
		results = append(results, res)
	}
	return results
}

// --- differential tests ---

// refFixture is one dataset the differential tests run on.
type refFixture struct {
	name string
	ds   *Dataset
}

var (
	refOnce     sync.Once
	refDatasets []refFixture
)

// topologies are the sweep's fleet-key variants, applied to every class
// profile as sweep.BuildFleet does: the baseline and the span-1,
// churn-x4 and sparse-shelves scenarios.
var topologies = []struct {
	name  string
	apply func(p *fleet.ClassProfile)
}{
	{"baseline", func(*fleet.ClassProfile) {}},
	{"span-1", func(p *fleet.ClassProfile) { p.SpanShelves = 1 }},
	{"churn-x4", func(p *fleet.ClassProfile) { p.ChurnPerDiskYear *= 4 }},
	{"sparse-shelves", func(p *fleet.ClassProfile) { p.SparseShelfFraction = 0.5 }},
}

// referenceDatasets simulates every topology at scale 0.02 under seeds
// 7 and 42, and pairs each fleet with its simulated events and with
// the events mined back out of its support logs.
func referenceDatasets(t *testing.T) []refFixture {
	t.Helper()
	refOnce.Do(func() {
		for _, topo := range topologies {
			for _, seed := range []int64{7, 42} {
				profiles := fleet.DefaultProfiles()
				for i := range profiles {
					topo.apply(&profiles[i])
				}
				f := fleet.BuildWorkers(profiles, 0.02, seed, 1)
				events := sim.Run(f, failmodel.DefaultParams(), seed+1).Events
				mined, _ := autosupport.Collect(f, events).MineEvents()
				name := fmt.Sprintf("%s/seed%d", topo.name, seed)
				refDatasets = append(refDatasets,
					refFixture{name + "/direct", NewDataset(f, events)},
					refFixture{name + "/mined", NewDataset(f, mined)})
			}
		}
	})
	return refDatasets
}

// refFilters exercise every Filter field, alone and together.
var refFilters = []struct {
	name string
	fl   Filter
}{
	{"none", Filter{}},
	{"exclude-family", Filter{ExcludeFamily: fleet.ProblemFamily}},
	{"types", Filter{Types: []failmodel.FailureType{failmodel.PhysicalInterconnect, failmodel.Protocol}}},
	{"system", Filter{System: func(s *fleet.System) bool { return s.ID%3 != 0 }}},
	{"include-recovered", Filter{IncludeRecovered: true}},
	{"all", Filter{
		ExcludeFamily:    "A",
		Types:            []failmodel.FailureType{failmodel.DiskFailure, failmodel.PhysicalInterconnect},
		System:           func(s *fleet.System) bool { return s.Paths == fleet.DualPath || s.ID%2 == 0 },
		IncludeRecovered: true,
	}},
}

// sameBits reports whether a and b hold the same values, comparing
// every float64 by its bit pattern, and nil slices equal to empty ones.
func sameBits(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	}
	panic("sameBits: unhandled kind " + a.Kind().String())
}

func checkSame(t *testing.T, what string, got, want any) {
	t.Helper()
	if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Errorf("%s differs from the reference:\n got %+v\nwant %+v", what, got, want)
	}
}

// columnar converts reference breakdowns to the columnar layout.
func columnar(rs []refBreakdown) []Breakdown {
	out := make([]Breakdown, len(rs))
	for i, r := range rs {
		out[i] = Breakdown{Label: r.Label, Systems: r.Systems, Shelves: r.Shelves, Disks: r.Disks, Groups: r.Groups, DiskYears: r.DiskYears}
		for _, t := range failmodel.Types {
			out[i].Events[t] = r.Events[t]
			out[i].AFR[t] = r.AFR[t]
		}
	}
	return out
}

// gapView is the comparable content of a gap analysis.
type gapView struct {
	Scope      Scope
	Containers int
	Overall    []float64
	PerType    [failmodel.NumTypes][]float64
	Fits       []stats.FitResult
}

func viewGaps(g *GapAnalysis) gapView {
	v := gapView{Scope: g.Scope, Containers: g.Containers, Overall: g.Overall.Values(), Fits: g.DiskFits()}
	for _, t := range failmodel.Types {
		v.PerType[t] = g.PerType[t].Values()
	}
	return v
}

func viewRefGaps(g *refGapAnalysis) gapView {
	v := gapView{Scope: g.Scope, Containers: g.Containers, Overall: g.Overall.Values(), Fits: g.DiskFits}
	for _, t := range failmodel.Types {
		v.PerType[t] = g.PerType[t].Values()
	}
	return v
}

// TestFoldMatchesReference holds every breakdown, gap analysis and
// correlation to the map-based reference under every filter, on direct
// and mined events over four fleet topologies and two seeds.
func TestFoldMatchesReference(t *testing.T) {
	for _, fx := range referenceDatasets(t) {
		ds := fx.ds
		for _, f := range refFilters {
			t.Run(fx.name+"/"+f.name, func(t *testing.T) {
				fl := f.fl
				keys := []struct {
					name string
					key  GroupKey
				}{
					{"class", func(s *fleet.System) (string, bool) { return s.Class.String(), true }},
					{"disk-model", refDiskModelKey},
					{"dual-path-shelf", func(s *fleet.System) (string, bool) {
						return "shelf " + string(s.ShelfModel), s.Paths == fleet.DualPath
					}},
				}
				for _, k := range keys {
					checkSame(t, "AFRByGroup "+k.name, ds.AFRByGroup(k.key, fl), columnar(refAFRByGroup(ds, k.key, fl)))
				}
				checkSame(t, "AFRByClass", ds.AFRByClass(fl), columnar(refAFRByClass(ds, fl)))
				for _, c := range fleet.Classes {
					for _, sh := range []fleet.ShelfModel{fleet.ShelfA, fleet.ShelfB, fleet.ShelfC} {
						checkSame(t, fmt.Sprintf("AFRByDiskModel %s/%s", c, sh),
							ds.AFRByDiskModel(c, sh, fl), columnar(refAFRByDiskModel(ds, c, sh, fl)))
					}
					checkSame(t, "AFRByPathConfig "+c.String(), ds.AFRByPathConfig(c, fl), columnar(refAFRByPathConfig(ds, c, fl)))
				}
				for _, m := range ShelfCompareModels {
					checkSame(t, "AFRByShelfModel "+m.String(),
						ds.AFRByShelfModel(fleet.LowEnd, m, fl), columnar(refAFRByShelfModel(ds, fleet.LowEnd, m, fl)))
				}
				for _, scope := range []Scope{ByShelf, ByRAIDGroup} {
					checkSame(t, "Gaps "+scope.String(), viewGaps(ds.Gaps(scope, fl)), viewRefGaps(refGaps(ds, scope, fl)))
					for _, window := range []simtime.Seconds{0, 2 * simtime.SecondsPerYear} {
						opts := CorrelationOptions{Window: window, Filter: fl}
						checkSame(t, "Correlation "+scope.String(), ds.Correlation(scope, opts), refCorrelation(ds, scope, opts))
					}
				}
			})
		}
	}
}

// TestAnalyzeMatchesReference holds the shared per-trial analysis, and
// the standalone statistics that share its groupings, to the reference.
func TestAnalyzeMatchesReference(t *testing.T) {
	for _, fx := range referenceDatasets(t) {
		t.Run(fx.name, func(t *testing.T) {
			ds := fx.ds
			a := ds.Analyze()
			checkSame(t, "ByClass", a.ByClass, columnar(refAFRByClass(ds, noFamilyH)))
			checkSame(t, "FamilyH", a.FamilyH, columnar(refAFRByGroup(ds, refFamilyHKey, Filter{})))
			checkSame(t, "ByDiskModel", a.ByDiskModel, columnar(refAFRByGroup(ds, refDiskModelKey, Filter{})))
			checkSame(t, "Env", a.Env, refEnvAFRSpread(ds))
			for i, m := range ShelfCompareModels {
				checkSame(t, "ShelfPanels "+m.String(), a.ShelfPanels[i], columnar(refAFRByShelfModel(ds, fleet.LowEnd, m, Filter{})))
			}
			for i, c := range MultipathClasses {
				checkSame(t, "PathPanels "+c.String(), a.PathPanels[i], columnar(refAFRByPathConfig(ds, c, noFamilyH)))
			}
			checkSame(t, "ShelfGaps", viewGaps(a.ShelfGaps), viewRefGaps(refGaps(ds, ByShelf, Filter{})))
			checkSame(t, "RAIDGroupGaps", viewGaps(a.RAIDGroupGaps), viewRefGaps(refGaps(ds, ByRAIDGroup, Filter{})))
			checkSame(t, "ShelfCorrelation", a.ShelfCorrelation, refCorrelation(ds, ByShelf, CorrelationOptions{}))

			checkSame(t, "EnvAFRSpread", ds.EnvAFRSpread(), a.Env)
			ratio, pairs := ds.CapacityAFRMeanRatio()
			aRatio, aPairs := a.CapacityAFRMeanRatio()
			checkSame(t, "CapacityAFRMeanRatio", [2]float64{ratio, float64(pairs)}, [2]float64{aRatio, float64(aPairs)})
			checkSame(t, "ShelfModelPIDelta", ds.ShelfModelPIDelta(), a.ShelfModelPIDelta())
			total, pi := ds.MultipathReductions()
			aTotal, aPI := a.MultipathReductions()
			checkSame(t, "MultipathReductions", [2]float64{total, pi}, [2]float64{aTotal, aPI})
		})
	}
}
