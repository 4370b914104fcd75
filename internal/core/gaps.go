package core

import (
	"math"
	"sort"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/simtime"
	"storagesubsys/internal/stats"
)

// Scope selects the container whose failure sequence is analyzed: the
// paper studies both perspectives (Section 5: "from a shelf perspective
// and from a RAID group perspective").
type Scope int

// Analysis scopes.
const (
	ByShelf Scope = iota
	ByRAIDGroup
)

func (s Scope) String() string {
	if s == ByRAIDGroup {
		return "RAID group"
	}
	return "shelf"
}

// BurstThreshold is the paper's headline burstiness threshold: the
// fraction of consecutive same-container failures arriving within
// 10,000 seconds of the previous one (~48% per shelf, ~30% per RAID
// group in Figure 9).
const BurstThreshold = 10000.0 // seconds

// GapAnalysis holds the Figure 9 analysis for one scope: empirical
// distributions of time between consecutive failures within the same
// container, per failure type and overall.
type GapAnalysis struct {
	Scope Scope
	// PerType maps each failure type to the pooled gap sample (seconds
	// between consecutive detections within a container).
	PerType map[failmodel.FailureType]*stats.ECDF
	// Overall pools gaps between storage subsystem failures of any type.
	Overall *stats.ECDF
	// Containers is the number of containers contributing >= 2 failures.
	Containers int

	diskGaps []float64 // the disk failure gaps in pooling order
}

// FractionWithin returns the fraction of gaps of failure type t below
// the threshold (in seconds). NaN if there are no gaps.
func (g *GapAnalysis) FractionWithin(t failmodel.FailureType, threshold float64) float64 {
	e := g.PerType[t]
	if e == nil || e.Len() == 0 {
		return math.NaN()
	}
	return e.Eval(threshold)
}

// OverallFractionWithin returns the fraction of overall gaps below the
// threshold.
func (g *GapAnalysis) OverallFractionWithin(threshold float64) float64 {
	if g.Overall == nil || g.Overall.Len() == 0 {
		return math.NaN()
	}
	return g.Overall.Eval(threshold)
}

// Gaps computes the Figure 9 analysis. The procedure mirrors the paper:
//
//  1. Storage subsystem failures (visible events) are grouped by
//     container — shelf enclosure or RAID group.
//  2. Within a container, duplicate failures are filtered out: a failure
//     is a duplicate if the previous retained failure in the same
//     sequence hit the same disk, so the analysis studies "the failure
//     distribution from different disks in the same shelf/RAID group".
//  3. Gaps are the differences between consecutive *detection* times —
//     the logs record when failures are detected, which is why the CDFs
//     "do not start from the zero point" (detection lags occurrence by
//     up to the hourly scrub interval).
//
// Per-type sequences use only events of that type; the overall sequence
// uses all types.
func (ds *Dataset) Gaps(scope Scope, fl Filter) *GapAnalysis {
	g := &GapAnalysis{
		Scope:   scope,
		PerType: make(map[failmodel.FailureType]*stats.ECDF),
	}

	// Lay the filtered events out by container ID: count, prefix-sum,
	// scatter. Spare disks belong to no RAID group (container -1).
	// Pooling in container-ID order pins the order of the pooled
	// samples, which feed floating-point MLE fits.
	events := ds.Events
	container := func(i int32) int32 {
		if scope == ByRAIDGroup {
			return int32(events[i].Group)
		}
		return int32(events[i].Shelf)
	}
	selected := ds.selectEvents(fl)
	top := int32(-1)
	var typeN [failmodel.NumTypes]int
	for _, i := range selected {
		top = max(top, container(i))
		typeN[events[i].Type]++
	}
	start := make([]int32, top+2) // where each container's events begin in order
	for _, i := range selected {
		if c := container(i); c >= 0 {
			start[c+1]++
		}
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	order := make([]int32, start[top+1]) // event positions by container
	for _, i := range selected {
		if c := container(i); c >= 0 {
			order[start[c]] = i
			start[c]++
		}
	}
	// Now start[c] is where container c's events end.

	overall := make([]float64, 0, len(order))
	var perType [failmodel.NumTypes][]float64
	for t, n := range typeN {
		perType[t] = make([]float64, 0, n)
	}
	lo := int32(0)
	for _, hi := range start[:top+1] {
		seq := order[lo:hi]
		lo = hi
		if len(seq) >= 2 {
			g.Containers++
		}
		if !detectionOrdered(events, seq) {
			sort.Slice(seq, func(i, j int) bool { return events[seq[i]].Detected < events[seq[j]].Detected })
		}
		var all gapRun
		var typed [failmodel.NumTypes]gapRun
		for _, i := range seq {
			e := &events[i]
			overall = all.next(e, overall)
			perType[e.Type] = typed[e.Type].next(e, perType[e.Type])
		}
	}

	g.Overall = stats.NewECDF(overall)
	for _, t := range failmodel.Types {
		g.PerType[t] = stats.NewECDF(perType[t])
	}
	g.diskGaps = perType[failmodel.DiskFailure]
	return g
}

// detectionOrdered reports whether the events at positions seq are
// already in detection order. Sorting them anyway would not move an
// event: the pattern-defeating quicksort returns sorted input
// untouched.
func detectionOrdered(events []failmodel.Event, seq []int32) bool {
	for k := 1; k < len(seq); k++ {
		if events[seq[k]].Detected < events[seq[k-1]].Detected {
			return false
		}
	}
	return true
}

// gapRun is the duplicate filter along one detection-ordered sequence:
// the last retained event's disk and detection time.
type gapRun struct {
	started bool
	disk    int
	at      simtime.Seconds
}

// next feeds e to the sequence. Unless e is a duplicate (the same disk
// failing again), it is retained, and the gap since the previous
// retained event, in seconds and floored at one second, is appended to
// gaps.
//
//detlint:hotpath
func (r *gapRun) next(e *failmodel.Event, gaps []float64) []float64 {
	if r.started && e.Disk == r.disk {
		return gaps
	}
	if r.started {
		gaps = append(gaps, max(float64(e.Detected-r.at), 1))
	}
	*r = gapRun{started: true, disk: e.Disk, at: e.Detected}
	return gaps
}

// DiskFits fits the candidate distributions to the disk failure gaps,
// best first (the paper: Gamma fits best; Exponential, Gamma, Weibull
// are the candidates). It is nil with fewer than 8 gaps. The fits are
// computed on each call.
func (g *GapAnalysis) DiskFits() []stats.FitResult {
	fits, err := stats.FitAll(g.diskGaps)
	if err != nil {
		return nil
	}
	return fits
}

// BestFitName returns the name of the best-fitting candidate
// distribution for disk failure gaps, or "" if no fit was possible.
func (g *GapAnalysis) BestFitName() string {
	fits := g.DiskFits()
	if len(fits) == 0 {
		return ""
	}
	return fits[0].Dist.Name()
}

// GammaGOF runs the paper's chi-square goodness-of-fit check of the
// Gamma fit to disk failure gaps at the given sample budget (the paper
// tests at significance level 0.05). Large samples make chi-square
// reject any parametric idealization, so the test subsamples
// deterministically (every k-th gap) to at most maxN observations; pass
// maxN <= 0 for the paper-equivalent default of 200 observations in 10
// equal-probability bins, which matches the statistical power a
// coarse-binned test over a pooled field sample has.
func (g *GapAnalysis) GammaGOF(maxN int) stats.GOFResult {
	return g.GammaGOFType(failmodel.DiskFailure, maxN)
}

// GammaGOFType runs the same chi-square Gamma goodness-of-fit check on
// the gap sample of an arbitrary failure type. The paper's contrast is
// that the test accepts Gamma for disk failures and rejects every
// candidate for the bursty failure types.
func (g *GapAnalysis) GammaGOFType(ft failmodel.FailureType, maxN int) stats.GOFResult {
	if maxN <= 0 {
		maxN = 200
	}
	disk := g.PerType[ft]
	if disk == nil || disk.Len() < 50 {
		return stats.GOFResult{P: math.NaN()}
	}
	values := disk.Values()
	sample := values
	if len(values) > maxN {
		stride := len(values) / maxN
		sample = make([]float64, 0, maxN)
		for i := 0; i < len(values) && len(sample) < maxN; i += stride {
			sample = append(sample, values[i])
		}
	}
	fit, err := stats.FitGamma(sample)
	if err != nil {
		return stats.GOFResult{P: math.NaN()}
	}
	bins := 10
	if len(sample) < 100 {
		bins = 6
	}
	return stats.ChiSquareGOF(sample, fit, bins)
}

// DetectionLagBound verifies the instrumentation property the paper
// relies on: every failure is detected within one scrub interval of its
// occurrence. It returns the maximum observed lag in seconds.
func (ds *Dataset) DetectionLagBound() float64 {
	maxLag := 0.0
	for _, e := range ds.Events {
		lag := float64(e.Detected - e.Time)
		if lag > maxLag {
			maxLag = lag
		}
	}
	return maxLag
}
