package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"
	"time"

	"storagesubsys/internal/expreport"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/scenario"
	"storagesubsys/internal/sweep"
)

// workers is the trial worker count of the CLI workloads: one per core
// of the 2-core reference machine.
const workers = 2

// parseCLI parses a generated CLI spec into the config the CLI path
// (cmd/sweep -grid-file) would run it under.
func parseCLI(name string, data []byte) (sweep.Config, error) {
	spec, err := scenario.Parse(data, name)
	if err != nil {
		return sweep.Config{}, err
	}
	cfg := spec.Config(sweep.DefaultConfig())
	cfg.Workers = workers
	return cfg, nil
}

// cliSetup is the CLI set-up: parse and validate the spec, then one
// warm trial per scenario (which builds each worker's fleet).
func cliSetup(name string, data []byte) (sweep.Config, time.Duration, error) {
	t0 := time.Now()
	cfg, err := parseCLI(name, data)
	if err != nil {
		return cfg, 0, err
	}
	warm := cfg
	warm.Trials = 1
	if _, err := sweep.Execute(warm, nil, nil); err != nil {
		return cfg, 0, err
	}
	return cfg, time.Since(t0), nil
}

// trialClock times engine jobs from outside through the
// BeforeTrialAttempt seam: a job runs from its worker picking it up to
// the same worker picking up the next one. Execute shards jobs
// contiguously, so consecutive job indices within a shard ran back to
// back on one worker.
type trialClock struct {
	t0     time.Time
	index  map[string]int
	trials int
	first  map[int]bool // the first job of each worker's shard
	start  []int64
	tr     *tracer // nil untraced
	open   []int   // traced: each job's span, closed when its worker starts the next
}

func newTrialClock(cfg sweep.Config, tr *tracer) *trialClock {
	jobs := cfg.Trials * len(cfg.Scenarios)
	c := &trialClock{
		t0: time.Now(), index: map[string]int{}, trials: cfg.Trials,
		first: map[int]bool{}, start: make([]int64, jobs), tr: tr,
	}
	for i, s := range cfg.Scenarios {
		c.index[s.Name] = i
	}
	w := min(workers, jobs)
	for i := 0; i < w; i++ {
		c.first[i*jobs/w] = true
	}
	if tr != nil {
		c.open = make([]int, jobs)
	}
	return c
}

// hooks returns the seam. Each job index is written by the one worker
// that runs it, and start is read only after Execute has returned.
func (c *trialClock) hooks() *sweep.Hooks {
	return &sweep.Hooks{BeforeTrialAttempt: func(scenario string, trial, attempt int) {
		if attempt > 0 {
			return
		}
		j := c.index[scenario]*c.trials + trial
		c.start[j] = int64(time.Since(c.t0))
		if c.tr != nil {
			if !c.first[j] {
				c.tr.end(c.open[j-1])
			}
			c.open[j] = c.tr.begin("sweep.job", -1, fmt.Sprintf("%s/%d", scenario, trial))
		}
	}}
}

// latencies are the CLI workloads' job latencies in milliseconds: the
// compute time of one Monte-Carlo replicate of the grid, that is trial
// t summed over the grid's scenarios. (Per engine job the two workers'
// scenarios would pool into two disjoint modes on mine-logs, where
// mined trials cost about three baseline ones, and the median would
// fall between them.) A replicate counts once each of its jobs has a
// successor in its worker's shard, which times it.
func (c *trialClock) latencies() []float64 {
	jobs := len(c.start)
	var out []float64
	for t := 0; t < c.trials; t++ {
		sum, ok := int64(0), true
		for j := t; j < jobs; j += c.trials {
			if j+1 == jobs || c.first[j+1] || c.start[j+1] <= c.start[j] {
				ok = false
				break
			}
			sum += c.start[j+1] - c.start[j]
		}
		if ok {
			out = append(out, float64(sum)/1e6)
		}
	}
	return out
}

// resultDigest is the SHA-256 of the result's canonical JSON.
func resultDigest(res *sweep.Result) (string, []byte, error) {
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), buf.Bytes(), nil
}

// checkResult runs the engine-result checks shared by every CLI run:
// no unrecovered trial, no partial result, and Result.Check's fresh
// rerun of each scenario's trial 0.
func (r *run) checkResult(res *sweep.Result, cfg sweep.Config, label string) {
	for _, f := range res.Failures {
		if !f.Recovered {
			r.tally.failed++
			r.tally.problems = append(r.tally.problems, fmt.Sprintf("%s: trial %s/%d failed: %s", label, f.Scenario, f.Trial, f.Panic))
		}
	}
	r.tally.check(!res.Partial, "%s: result is partial", label)
	cfg.Hooks, cfg.FleetSource = nil, nil
	err := res.Check(cfg)
	r.tally.check(err == nil, "%s: Result.Check: %v", label, err)
}

// cliRun is the untraced run of trials-steady or mine-logs: one long
// sweep.Execute.
func (r *run) cliRun() error {
	data := cliSpec(r.workload, r.seed, cliTrials(r.workload, r.seconds))
	var cfg sweep.Config
	var setups []float64
	for i := 0; i < setupReps; i++ {
		c, d, err := cliSetup(r.workload, data)
		if err != nil {
			return err
		}
		cfg = c
		setups = append(setups, d.Seconds())
	}
	r.record["trials_per_scenario"] = cfg.Trials
	r.record["sweep_seed"] = cfg.Seed

	clock := newTrialClock(cfg, nil)
	cfg.Hooks = clock.hooks()
	p0 := sampleProc()
	res, err := sweep.Execute(cfg, nil, nil)
	ph := since(p0)
	rss := peakRSSMB()
	if err != nil {
		return err
	}
	trials := res.TrialsDone()
	r.tally.attempted += len(cfg.Scenarios) * cfg.Trials

	lat := clock.latencies()
	r.latency("job", lat)
	r.set("setup_s", median(setups))
	r.set("trials_per_s", float64(trials)/ph.wall.Seconds())
	r.set("jobs_per_s", float64(trials)/ph.wall.Seconds())
	r.set("cpu_ms_per_trial", ms(ph.cpu)/float64(trials))
	r.set("alloc_mb_per_trial", float64(ph.allocBytes)/1e6/float64(trials))
	r.set("peak_rss_mb", rss)
	r.set("job_p50_ms", median(lat))
	r.set("job_p95_ms", quantile(lat, 0.95))

	r.checkResult(res, cfg, r.workload)
	digest, _, err := resultDigest(res)
	r.tally.check(err == nil, "encoding result: %v", err)
	r.record["result_sha256"] = digest
	return nil
}

// overheadOrder runs the untraced and traced halves of a traced run
// as A B B A, so drift over the run (heap growth, a neighbour's load)
// falls on both halves alike.
var overheadOrder = []bool{false, true, true, false}

// cliTrace is the traced run of a CLI workload: the same sweep
// untraced and traced (overhead), then a replay of a short sweep's
// trials layer by layer.
func (r *run) cliTrace() error {
	tr := r.tr
	data := cliSpec(r.workload, r.seed, cliTrials(r.workload, r.seconds/float64(len(overheadOrder))))
	r.set("scenario.parse_us", parseMicros(r.workload, [][]byte{data}))
	cfg, _, err := cliSetup(r.workload, data)
	if err != nil {
		return err
	}

	var plain phase
	var wallTraced time.Duration
	nPlain, nTraced := 0, 0
	var builds atomic.Int64
	var digests []string
	var last *sweep.Result
	for _, traced := range overheadOrder {
		c := cfg
		if traced {
			c.Hooks = newTrialClock(cfg, tr).hooks()
			c.FleetSource = func(key sweep.FleetKey, seed int64, build func() *fleet.Fleet) *fleet.Fleet {
				h := tr.begin("fleet.build", -1, fmt.Sprintf("seed-%d", seed))
				defer tr.end(h)
				builds.Add(1)
				return build()
			}
		}
		p0 := sampleProc()
		res, err := sweep.Execute(c, nil, nil)
		ph := since(p0)
		if err != nil {
			return err
		}
		r.tally.attempted += len(cfg.Scenarios) * cfg.Trials
		if traced {
			nTraced++
			wallTraced += ph.wall
		} else {
			nPlain++
			plain.wall += ph.wall
			plain.allocObj += ph.allocObj
			plain.gcCycles += ph.gcCycles
			plain.gcCPUFrac += ph.gcCPUFrac
		}
		d, _, err := resultDigest(res)
		if err != nil {
			return err
		}
		digests = append(digests, d)
		last = res
	}
	for _, d := range digests[1:] {
		r.tally.check(d == digests[0], "traced and untraced sweeps of one config differ: %v", digests)
	}
	r.checkResult(last, cfg, "overhead sweep")
	// Per sweep: each phase runs the same config once.
	r.set("trace.overhead_frac", wallTraced.Seconds()/float64(nTraced)/(plain.wall.Seconds()/float64(nPlain))-1)
	r.set("fleet.builds", float64(builds.Load())/float64(nTraced))
	r.set("go.gc_cpu_frac", plain.gcCPUFrac/float64(nPlain))
	r.set("go.gc_cycles", float64(plain.gcCycles)/float64(nPlain))
	r.set("go.allocs_per_trial", float64(plain.allocObj)/float64(last.TrialsDone()*nPlain))
	encMs, size, err := encodeResult(last)
	if err != nil {
		return err
	}
	r.set("sweep.result_encode_ms", encMs)
	r.set("sweep.result_bytes", float64(size))

	// A short sweep, replayed layer by layer. It also captures its final
	// checkpoint state and renders its report, timing those layers on
	// this workload's result although the CLI run itself writes neither.
	replaySpec := cliSpec(r.workload, r.seed, replayTrials)
	rcfg, err := parseCLI(r.workload, replaySpec)
	if err != nil {
		return err
	}
	var final *sweep.CheckpointState
	rcfg.OnCheckpoint = func(st *sweep.CheckpointState) { final = st }
	rres, err := sweep.Execute(rcfg, nil, nil)
	if err != nil {
		return err
	}
	enc, dec, ckptSize, err := checkpointCost(final, filepath.Join(r.work, "replay.ckpt"))
	if err != nil {
		return err
	}
	r.set("sweep.ckpt_encode_ms", enc)
	r.set("sweep.ckpt_decode_ms", dec)
	r.set("sweep.ckpt_bytes", ckptSize)
	t0 := time.Now()
	if err := expreport.Render(io.Discard, rres); err != nil {
		return err
	}
	r.set("expreport.render_ms", ms(time.Since(t0)))
	rep := replay(tr, rcfg, r.workload)
	r.replayCheck(rep, rres, r.workload)
	r.layerMetrics(rep)

	// The same spec once through the service path: a fresh sweepd, one
	// scheduled job, its result and report.
	plans := []jobPlan{{Spec: replaySpec, Report: true}}
	s, trials, _, err := r.serviceSetup("sweepd-replay", plans)
	if err != nil {
		return err
	}
	l, err := s.openLoop(tr, plans, trials)
	s.stop()
	if err != nil {
		return err
	}
	r.account(l, "service path")
	_, direct, err := resultDigest(rres)
	if err != nil {
		return err
	}
	r.tally.check(l.outs[0].err != "" || bytes.Equal(l.outs[0].result, direct),
		"service path: served /result differs from the direct sweep")
	r.sweepdMetrics([]*loop{l})
	r.set("loadgen.late_ms_p95", l.lateP95)
	r.set("loadgen.late_ms_max", l.lateMax)
	return nil
}
