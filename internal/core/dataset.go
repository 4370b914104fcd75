// Package core implements the paper's analysis methodology — the actual
// contribution of the FAST '08 study. Given a fleet topology and a
// failure event stream (from the simulator or mined from raw support
// logs), it computes:
//
//   - annualized failure rates (AFR) with exact per-disk-year exposure
//     accounting, broken down by failure type, system class, disk model,
//     shelf enclosure model, and network redundancy configuration
//     (Figures 4–7);
//   - time-between-failure distributions per shelf enclosure and per
//     RAID group, with duplicate filtering and candidate-distribution
//     fitting (Figure 9);
//   - the failure-independence analysis comparing empirical P(2)
//     against the theoretical P(2) = P(1)^2/2 under independence
//     (Figure 10);
//   - the paper's Findings 1–11 as programmatic checks.
package core

import (
	"sort"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
)

// Dataset binds a failure event stream to the fleet topology it was
// observed on. All analyses hang off Dataset.
type Dataset struct {
	Fleet  *fleet.Fleet
	Events []failmodel.Event // sorted by occurrence time
}

// NewDataset builds a dataset, sorting the events by occurrence time if
// needed. The event slice is retained (not copied).
func NewDataset(f *fleet.Fleet, events []failmodel.Event) *Dataset {
	if !sort.SliceIsSorted(events, func(i, j int) bool { return events[i].Time < events[j].Time }) {
		sort.Slice(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	}
	return &Dataset{Fleet: f, Events: events}
}

// Filter selects which events an analysis sees.
type Filter struct {
	// IncludeRecovered also counts faults absorbed by multipathing.
	// The paper's storage subsystem failures exclude them: "storage
	// failures characterized as storage subsystem failure as a whole
	// are those errors exposed by storage subsystems to the rest of
	// the system".
	IncludeRecovered bool
	// ExcludeFamily drops events from (and exposure of) systems using
	// the given disk family — the paper's Figure 4(b) excludes the
	// problematic "Disk H" family. Empty means no exclusion.
	ExcludeFamily string
	// Types restricts to the given failure types (nil means all).
	Types []failmodel.FailureType
	// System restricts to systems for which the predicate holds (nil
	// means all systems).
	System func(*fleet.System) bool
}

// admitsSystem reports whether a system's events and exposure count.
func (fl Filter) admitsSystem(s *fleet.System) bool {
	if fl.ExcludeFamily != "" && s.DiskModel.Family == fl.ExcludeFamily {
		return false
	}
	if fl.System != nil && !fl.System(s) {
		return false
	}
	return true
}

// admitsEvent reports whether an event passes the filter (assuming its
// system already does).
func (fl Filter) admitsEvent(e failmodel.Event) bool {
	if !e.Visible() && !fl.IncludeRecovered {
		return false
	}
	if fl.Types != nil {
		ok := false
		for _, t := range fl.Types {
			if e.Type == t {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// selectEvents returns the positions in ds.Events of the events the
// filter admits, allocated once at their final size.
func (ds *Dataset) selectEvents(fl Filter) []int32 {
	admits := func(e *failmodel.Event) bool {
		return fl.admitsEvent(*e) && fl.admitsSystem(ds.Fleet.Systems[e.System])
	}
	n := 0
	for i := range ds.Events {
		if admits(&ds.Events[i]) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]int32, 0, n)
	for i := range ds.Events {
		if admits(&ds.Events[i]) {
			out = append(out, int32(i))
		}
	}
	return out
}
