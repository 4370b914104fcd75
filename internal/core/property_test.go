package core

import (
	"testing"
	"testing/quick"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/simtime"
)

// randomEvents derives a deterministic event set on a fleet from a
// fuzz seed: each byte places one event (disk, type, time, recovered
// flag), the i-th event among the i-th block of 256 disks.
func randomEvents(f *fleet.Fleet, seed []byte) []failmodel.Event {
	var events []failmodel.Event
	for i, b := range seed {
		disk := (int(b) + 256*i) % len(f.Disks)
		ft := failmodel.Types[int(b>>2)%len(failmodel.Types)]
		at := simtime.Seconds(i+1) * 50000 % simtime.StudyDuration
		events = append(events, ev(disk, f, at, ft, b&0x80 != 0))
	}
	return events
}

// Property: every grouping partitions the visible events of the
// systems it covers — summed over a grouping's breakdowns, the events
// of each type equal those systems' visible events of that type — and
// AFR times disk-years recovers every group's event count.
func TestQuickBreakdownPartitionsEvents(t *testing.T) {
	all := func(*fleet.System) bool { return true }
	notH := func(s *fleet.System) bool { return s.DiskModel.Family != fleet.ProblemFamily }
	for _, f := range []*fleet.Fleet{craftedFleet(), fleet.BuildDefault(0.005, 3)} {
		check := func(seed []byte) bool {
			ds := NewDataset(f, randomEvents(f, seed))
			a := ds.Analyze()
			type grouping struct {
				bs     []Breakdown
				covers func(*fleet.System) bool
			}
			gs := []grouping{
				{ds.AFRByGroup(func(s *fleet.System) (string, bool) { return s.DiskModel.String(), true }, Filter{}), all},
				{a.ByClass, notH},
				{a.FamilyH, func(s *fleet.System) bool { return s.Class != fleet.NearLine }},
				{a.ByDiskModel, all},
				{ds.foldOne(byEnvironment, Filter{}), all},
			}
			for i, m := range ShelfCompareModels {
				gs = append(gs, grouping{a.ShelfPanels[i], func(s *fleet.System) bool {
					return s.Class == fleet.LowEnd && s.DiskModel == m
				}})
			}
			for i, c := range MultipathClasses {
				gs = append(gs, grouping{a.PathPanels[i], func(s *fleet.System) bool { return s.Class == c && notH(s) }})
			}
			for _, g := range gs {
				var want, got [failmodel.NumTypes]int
				for _, e := range ds.Events {
					if e.Visible() && g.covers(f.Systems[e.System]) {
						want[e.Type]++
					}
				}
				for _, b := range g.bs {
					for _, ft := range failmodel.Types {
						got[ft] += b.Events[ft]
						reconstructed := b.AFR[ft] * b.DiskYears
						if diff := reconstructed - float64(b.Events[ft]); diff > 1e-6 || diff < -1e-6 {
							return false
						}
					}
				}
				if got != want {
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
			t.Error(err)
		}
	}
}

// Property: the duplicate filter never yields more gaps than events-1
// per container, and all gaps are at least one second.
func TestQuickGapBounds(t *testing.T) {
	f := craftedFleet()
	check := func(seed []byte) bool {
		events := randomEvents(f, seed)
		ds := NewDataset(f, events)
		g := ds.Gaps(ByShelf, Filter{})
		visible := 0
		for _, e := range events {
			if e.Visible() {
				visible++
			}
		}
		if g.Overall.Len() > visible {
			return false
		}
		for _, x := range g.Overall.Values() {
			if x < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: correlation counting is consistent — P1 and P2 are
// fractions in [0,1], theoretical P2 = P1^2/2 exactly, and counts never
// exceed the container population.
func TestQuickCorrelationConsistency(t *testing.T) {
	f := craftedFleet()
	check := func(seed []byte) bool {
		events := randomEvents(f, seed)
		ds := NewDataset(f, events)
		for _, scope := range []Scope{ByShelf, ByRAIDGroup} {
			for _, r := range ds.Correlation(scope, CorrelationOptions{}) {
				if r.CountP1 > r.Containers || r.CountP2 > r.Containers {
					return false
				}
				if r.P1 < 0 || r.P1 > 1 || r.P2 < 0 || r.P2 > 1 {
					return false
				}
				want := r.P1 * r.P1 / 2
				if diff := r.TheoreticalP2 - want; diff > 1e-12 || diff < -1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
