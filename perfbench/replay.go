package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"time"

	"storagesubsys/internal/autosupport"
	"storagesubsys/internal/core"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/scenario"
	"storagesubsys/internal/sim"
	"storagesubsys/internal/stats"
	"storagesubsys/internal/sweep"
)

// replayTrials is the trials per scenario of the short sweep a CLI
// traced run replays layer by layer.
const replayTrials = 4

// replayed is what a layer-by-layer replay of a sweep's trials saw.
type replayed struct {
	// visible[si][t] counts the visible events of the stream trial t of
	// scenario si analysed: the engine's events_visible.
	visible [][]float64
	// simVisible lists every replayed trial's visible simulator events.
	simVisible []float64
	// messages counts each trial's rendered log messages; recovered
	// counts the events mining recovered against visibleMined
	// simulator events.
	messages                []float64
	recovered, visibleMined float64
	allocKB                 []float64
	aggregateUs, deltasUs   []float64
}

// scenarioParams materializes a scenario's failure-model overrides
// exactly as the sweep engine does.
func scenarioParams(s sweep.Scenario) *failmodel.Params {
	p := failmodel.DefaultParams()
	if s.DiskAFRMult > 0 {
		p.ScaleDiskAFR(s.DiskAFRMult)
	}
	if s.PIRateMult > 0 {
		p.ScalePIRates(s.PIRateMult)
	}
	if s.PISingletonProb > 0 {
		p.PIBurst.SingletonProb = s.PISingletonProb
	}
	if s.RepairLagMult > 0 {
		p.ScaleRepairLag(s.RepairLagMult)
	}
	if s.RepairLagSigma > 0 {
		p.RepairLagSigma = s.RepairLagSigma
	}
	return p
}

func countVisible(events []failmodel.Event) int {
	n := 0
	for _, e := range events {
		if e.Visible() {
			n++
		}
	}
	return n
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timed runs f inside a span.
func timed(tr *tracer, name string, parent int, id string, f func()) {
	h := tr.begin(name, parent, id)
	f()
	tr.end(h)
}

// familyHKey is the grouping behind Finding 3's family-H ratio, as the
// engine's metric extraction computes it.
func familyHKey(s *fleet.System) (string, bool) {
	if s.Class == fleet.NearLine {
		return "", false
	}
	if s.DiskModel.Family == fleet.ProblemFamily {
		return "H", true
	}
	return "other", true
}

// replay re-runs every trial of cfg (variance mode none) through the
// layers one at a time, on one goroutine, with a span around each
// call: fleet build/Checkpoint/Reset/Clone, the simulator, the
// autosupport log pipeline, Dataset construction, the Dataset methods
// the engine's per-trial metric extraction calls, Findings, and the
// collector's Online/Reservoir and paired-delta pushes.
func replay(tr *tracer, cfg sweep.Config, tag string) *replayed {
	nMet := len(sweep.Metrics)
	rep := &replayed{visible: make([][]float64, len(cfg.Scenarios))}
	scratch := &sim.Scratch{}
	base := make([][]float64, cfg.Trials) // baseline vectors, for paired deltas
	for si, sc := range cfg.Scenarios {
		id := fmt.Sprintf("%s/%s", tag, sc.Name)
		key := sc.FleetKeyIn(cfg.Scale)
		var f *fleet.Fleet
		timed(tr, "fleet.build", -1, id, func() { f = sweep.BuildFleet(key, cfg.Seed) })
		timed(tr, "fleet.clone", -1, id, func() { _ = f.Clone() })
		cp := f.Checkpoint()
		params := scenarioParams(sc)
		onl := make([]stats.Online, nMet)
		res := make([]*stats.Reservoir, nMet)
		for mi := range res {
			res[mi] = stats.NewReservoir(512, *stats.NewRNG(cfg.Seed))
		}
		paired := make([]stats.PairedOnline, nMet)
		for t := 0; t < cfg.Trials; t++ {
			tid := fmt.Sprintf("%s/%d", id, t)
			root := tr.begin("trial", -1, tid)
			if t > 0 {
				timed(tr, "fleet.reset", root, tid, func() { f.Reset(cp) })
			}
			var simRes *sim.Result
			timed(tr, "sim.run", root, tid, func() {
				simRes = sim.RunWorkersOpts(f, params, trialSeed(cfg.Seed, t), 1, scratch, sim.Opts{})
			})
			events := simRes.Events
			simVisible := countVisible(events)
			rep.simVisible = append(rep.simVisible, float64(simVisible))
			// Every trial's events go through the log pipeline, so its
			// cost is measured on each workload's event stream; only
			// mining scenarios analyse the recovered events.
			var db *autosupport.Database
			var mined []failmodel.Event
			timed(tr, "autosupport.collect", root, tid, func() { db = autosupport.Collect(f, events) })
			_, _, msgs := db.Stats()
			rep.messages = append(rep.messages, float64(msgs))
			timed(tr, "autosupport.mine", root, tid, func() { mined, _ = db.MineEvents() })
			rep.recovered += float64(len(mined))
			rep.visibleMined += float64(simVisible)
			if sc.Mine {
				events = mined
			}

			a0 := heapAllocs()
			var ds *core.Dataset
			timed(tr, "core.dataset", root, tid, func() { ds = core.NewDataset(f, events) })
			vals := extract(tr, root, tid, ds)
			a1 := heapAllocs()
			// Findings are timed on every workload; they count among the
			// statistics and allocations only when the sweep evaluates them.
			pass := 0
			timed(tr, "core.findings", root, tid, func() {
				for _, fd := range ds.EvaluateFindings() {
					if fd.Pass {
						pass++
					}
				}
			})
			if cfg.Findings {
				vals = append(vals, float64(pass))
				a1 = heapAllocs()
			}
			rep.allocKB = append(rep.allocKB, float64(a1-a0)/1e3)
			rep.visible[si] = append(rep.visible[si], vals[0])
			for len(vals) < nMet {
				vals = append(vals, math.NaN())
			}

			t0 := time.Now()
			for mi, v := range vals[:nMet] {
				if v == v {
					onl[mi].Push(v)
					res[mi].Push(v)
				}
			}
			rep.aggregateUs = append(rep.aggregateUs, us(time.Since(t0)))
			// Paired pushes against the first scenario's same trial, as
			// the engine's CRN deltas do; timed on every workload.
			if si == 0 {
				base[t] = vals
			} else {
				t0 := time.Now()
				for mi := range paired {
					paired[mi].Push(vals[mi], base[t][mi])
				}
				rep.deltasUs = append(rep.deltasUs, us(time.Since(t0)))
			}
			tr.end(root)
		}
	}
	return rep
}

// extract makes the Dataset calls of the engine's per-trial metric
// extraction, under core.extract with one child span per analysis
// family. It returns the statistics in computation order; the first is
// events_visible.
func extract(tr *tracer, parent int, id string, ds *core.Dataset) []float64 {
	var vals []float64
	x := tr.begin("core.extract", parent, id)
	vals = append(vals, float64(countVisible(ds.Events)))
	timed(tr, "core.afr", x, id, func() {
		noH := core.Filter{ExcludeFamily: fleet.ProblemFamily}
		for _, b := range ds.AFRByClass(noH) {
			vals = append(vals, b.TotalAFR(), b.Share(failmodel.DiskFailure), b.Share(failmodel.PhysicalInterconnect))
		}
		for _, b := range ds.AFRByGroup(familyHKey, core.Filter{}) {
			vals = append(vals, b.TotalAFR())
		}
		sp := ds.EnvAFRSpread()
		ratio, _ := ds.CapacityAFRMeanRatio()
		totalRed, piRed := ds.MultipathReductions()
		vals = append(vals, sp.DiskRelStd, sp.SubsysRelStd, ratio, ds.ShelfModelPIDelta(), totalRed, piRed)
	})
	timed(tr, "core.gaps", x, id, func() {
		shelf := ds.Gaps(core.ByShelf, core.Filter{})
		rg := ds.Gaps(core.ByRAIDGroup, core.Filter{})
		vals = append(vals,
			shelf.OverallFractionWithin(core.BurstThreshold),
			rg.OverallFractionWithin(core.BurstThreshold),
			shelf.FractionWithin(failmodel.DiskFailure, core.BurstThreshold),
			shelf.FractionWithin(failmodel.PhysicalInterconnect, core.BurstThreshold))
	})
	timed(tr, "core.correlation", x, id, func() {
		for _, r := range ds.Correlation(core.ByShelf, core.CorrelationOptions{}) {
			vals = append(vals, r.Ratio)
		}
	})
	tr.end(x)
	return vals
}

// replayCheck proves the replay re-ran the trials the engine
// aggregated: for every scenario, trial 0's events_visible equals the
// engine's point estimate exactly and the replay mean lies within the
// engine's 95% CI.
func (r *run) replayCheck(rep *replayed, res *sweep.Result, label string) {
	for si, ss := range res.Scenarios {
		var m *sweep.MetricSummary
		for i := range ss.Metrics {
			if ss.Metrics[i].Name == "events_visible" {
				m = &ss.Metrics[i]
			}
		}
		if m == nil || si >= len(rep.visible) || len(rep.visible[si]) == 0 {
			r.tally.check(false, "%s: replay check: scenario %q missing", label, ss.Scenario.Name)
			continue
		}
		got := mean(rep.visible[si])
		lo, hi := float64(m.CILo), float64(m.CIHi)
		ok := rep.visible[si][0] == float64(m.Point) && m.N == len(rep.visible[si]) &&
			got >= lo-1e-9*math.Abs(lo) && got <= hi+1e-9*math.Abs(hi)
		r.tally.check(ok, "%s: replay check: scenario %q events_visible replay mean %v (trial 0 %v, n=%d) against engine mean %v CI [%v, %v] (point %v, n=%d)",
			label, ss.Scenario.Name, got, rep.visible[si][0], len(rep.visible[si]), float64(m.Mean), lo, hi, float64(m.Point), m.N)
		r.printf("replay check %s/%s: events_visible replay mean %.4f, engine mean %.4f CI [%.4f, %.4f], trial 0 %v = point %v: %s",
			label, ss.Scenario.Name, got, float64(m.Mean), lo, hi, rep.visible[si][0], float64(m.Point), passFail(ok))
	}
}

func passFail(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}

// layerMetrics fills the per-layer metrics a replay measures.
func (r *run) layerMetrics(rep *replayed) {
	tr := r.tr
	r.set("fleet.build_ms", median(tr.durations("fleet.build")))
	r.set("fleet.clone_ms", median(tr.durations("fleet.clone")))
	r.set("fleet.reset_us", median(tr.durations("fleet.reset"))*1e3)
	r.set("sim.run_ms", median(tr.durations("sim.run")))
	r.set("sim.events_per_trial", mean(rep.simVisible))
	r.set("autosupport.collect_ms", median(tr.durations("autosupport.collect")))
	r.set("autosupport.mine_ms", median(tr.durations("autosupport.mine")))
	r.set("autosupport.messages_per_trial", mean(rep.messages))
	if rep.visibleMined > 0 {
		r.set("autosupport.resolve_ratio", rep.recovered/rep.visibleMined)
	}
	r.set("core.dataset_us", median(tr.durations("core.dataset"))*1e3)
	r.set("core.afr_ms", median(tr.durations("core.afr")))
	r.set("core.gaps_ms", median(tr.durations("core.gaps")))
	r.set("core.correlation_ms", median(tr.durations("core.correlation")))
	r.set("core.extract_ms", median(tr.durations("core.extract")))
	r.set("core.findings_ms", median(tr.durations("core.findings")))
	r.set("core.alloc_kb_per_trial", median(rep.allocKB))
	r.set("sweep.aggregate_us", median(rep.aggregateUs))
	r.set("sweep.deltas_us", median(rep.deltasUs))
}

// checkpointCost times CheckpointState.Save and LoadCheckpoint of one
// state at path, and returns the file's size.
func checkpointCost(st *sweep.CheckpointState, path string) (encMs, decMs, size float64, err error) {
	t0 := time.Now()
	if err := st.Save(path, nil); err != nil {
		return 0, 0, 0, err
	}
	encMs = ms(time.Since(t0))
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, 0, err
	}
	t0 = time.Now()
	if _, err := sweep.LoadCheckpoint(path); err != nil {
		return 0, 0, 0, err
	}
	return encMs, ms(time.Since(t0)), float64(fi.Size()), nil
}

// encodeResult times Result.WriteJSON alone (median of a few encodes).
func encodeResult(res *sweep.Result) (msMedian float64, size int, err error) {
	var ds []float64
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := res.WriteJSON(&buf); err != nil {
			return 0, 0, err
		}
		ds = append(ds, ms(time.Since(t0)))
		size = buf.Len()
	}
	return median(ds), size, nil
}

// parseMicros is the median time of scenario.Parse over the specs.
func parseMicros(name string, specs [][]byte) float64 {
	var ds []float64
	for rep := 0; rep < 3; rep++ {
		for _, data := range specs {
			t0 := time.Now()
			if _, err := scenario.Parse(data, name); err != nil {
				return math.NaN()
			}
			ds = append(ds, us(time.Since(t0)))
		}
	}
	return median(ds)
}
