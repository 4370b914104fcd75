package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"storagesubsys/internal/expreport"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/scenario"
	"storagesubsys/internal/sweep"
	"storagesubsys/internal/sweepd"
)

// The service workload's shape on the 2-core reference machine: two
// pool slots of one trial worker each, at most two client connections.
const (
	poolSlots       = 2
	jobWorkers      = 1
	checkpointEvery = 2 // so partial results refresh within a job
	maxConns        = 2
	// pollInterval is how often the client re-asks for a job's result.
	// Job latency includes up to one interval of it; sweepd.queue_ms and
	// sweepd.run_ms are no more precise than it.
	pollInterval = 5 * time.Millisecond
	jobTimeout   = 30 * time.Second
	// backlogSlack is how much the sweepd queue may grow across the
	// timed phase before the run counts as overloaded: at the offered load the
	// queue rarely holds more than a few jobs.
	backlogSlack = 8
	checkJobs    = 4 // served results compared against direct Execute
	replayJobs   = 3 // jobs the traced run replays layer by layer
)

// service is one in-process sweepd behind a loopback HTTP listener,
// and the client the load generator shares.
type service struct {
	srv    *sweepd.Server
	ts     *httptest.Server
	client *http.Client
}

func startService(dir string) (*service, error) {
	srv, err := sweepd.New(sweepd.Config{
		Dir: dir, Pool: poolSlots, JobWorkers: jobWorkers,
		CheckpointEvery: checkpointEvery, Base: sweepd.DefaultBase(),
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	return &service{srv: srv, ts: ts, client: &http.Client{Transport: tr, Timeout: jobTimeout}}, nil
}

// stop closes the listener once every request has finished, then
// drains the job runners.
func (s *service) stop() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Drain()
}

func (s *service) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

type health struct {
	Queued int `json:"queued"`
	Cache  struct {
		Builds int `json:"builds"`
		Hits   int `json:"hits"`
	} `json:"cache"`
}

func (s *service) health(ctx context.Context) (health, error) {
	var h health
	code, b, err := s.do(ctx, http.MethodGet, "/v1/healthz", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("healthz: HTTP %d", code)
	}
	if err == nil {
		err = json.Unmarshal(b, &h)
	}
	return h, err
}

// jobOutcome is what the client saw of one job.
type jobOutcome struct {
	err     string
	trials  int
	latency time.Duration // scheduled submit to last requested body
	doneAt  time.Duration // completion, from the start of the phase
	submit, resultGet, reportGet,
	queue, run time.Duration // queue and run: traced runs only
	polls  int
	result []byte
}

// runJob submits one job, waits for its result by polling /result and
// fetches /report if the plan asks. Traced, it also polls the job's
// status until it leaves the queue, to time queueing, and records a
// span per HTTP call.
func (s *service) runJob(ctx context.Context, tr *tracer, name string, p jobPlan, due time.Time) (o jobOutcome) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	root := -1
	call := func(span, method, path string, body []byte) (int, []byte, time.Duration, error) {
		var h int
		if tr != nil {
			h = tr.begin(span, root, name)
		}
		t0 := time.Now()
		code, b, err := s.do(ctx, method, path, body)
		d := time.Since(t0)
		if tr != nil {
			tr.end(h)
		}
		return code, b, d, err
	}
	fail := func(format string, args ...any) jobOutcome {
		o.err = fmt.Sprintf("%s: ", name) + fmt.Sprintf(format, args...)
		return o
	}
	if tr != nil {
		root = tr.begin("sweepd.job", -1, name)
		defer tr.end(root)
	}

	code, b, d, err := call("sweepd.submit", http.MethodPost, "/v1/jobs", p.Spec)
	if err != nil || code != http.StatusCreated {
		return fail("submit: HTTP %d %v %s", code, err, b)
	}
	o.submit = d
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return fail("submit response: %v", err)
	}
	submitted := time.Now()
	started := submitted
	if tr != nil {
		for st.State == "queued" {
			time.Sleep(pollInterval)
			code, b, _, err := call("sweepd.status", http.MethodGet, "/v1/jobs/"+st.ID, nil)
			if err != nil || code != http.StatusOK {
				return fail("status: HTTP %d %v", code, err)
			}
			if err := json.Unmarshal(b, &st); err != nil {
				return fail("status response: %v", err)
			}
			o.polls++
		}
		started = time.Now()
		o.queue = started.Sub(submitted)
	}
	for {
		code, b, d, err := call("sweepd.result_get", http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil)
		o.polls++
		if err != nil {
			return fail("result: %v", err)
		}
		if code == http.StatusOK {
			o.result, o.resultGet = b, d
			break
		}
		if code != http.StatusConflict {
			return fail("result: HTTP %d %s", code, b)
		}
		select {
		case <-ctx.Done():
			return fail("no result within %v", jobTimeout)
		case <-time.After(pollInterval):
		}
	}
	o.run = time.Since(started)
	if p.Report {
		code, b, d, err := call("sweepd.report_get", http.MethodGet, "/v1/jobs/"+st.ID+"/report", nil)
		if err != nil || code != http.StatusOK || len(b) == 0 {
			return fail("report: HTTP %d %v", code, err)
		}
		o.reportGet = d
	}
	o.latency = time.Since(due)
	return o
}

// loop is one open-loop phase's record.
type loop struct {
	outs           []jobOutcome
	late           []float64 // generator lateness per submission, ms
	elapsed        time.Duration
	proc           phase
	rss            float64
	before, after  health // queue and cache at the start and end of the schedule
	final          health // once every job has finished
	queueMax       int    // traced: deepest queue seen by the sampler
	healthSamples  int
	ok, trials     int
	latencies      []float64 // ms, successful jobs
	meanLatency    float64
	backlog, slow  bool
	backlogGrowth  int
	lateP95        float64 // ms
	lateMax        float64 // ms
	latePeriodFrac float64 // lateP95 over the arrival period
}

// openLoop submits the plans on a fixed schedule, jobRate per second,
// regardless of how earlier jobs fare, and waits for every job.
func (s *service) openLoop(tr *tracer, plans []jobPlan, trials []int) (*loop, error) {
	ctx := context.Background()
	l := &loop{outs: make([]jobOutcome, len(plans)), late: make([]float64, len(plans))}
	var err error
	if l.before, err = s.health(ctx); err != nil {
		return nil, err
	}
	stopSampler := func() {}
	if tr != nil {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				if h, err := s.health(ctx); err == nil {
					l.healthSamples++
					l.queueMax = max(l.queueMax, h.Queued)
				}
			}
		}()
		// The sampler's writes are read only after done is closed.
		stopSampler = func() {
			close(stop)
			<-done
		}
	}

	p0 := sampleProc()
	start := p0.wall
	var wg sync.WaitGroup
	for i := range plans {
		due := start.Add(time.Duration(float64(i) / jobRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		l.late[i] = ms(time.Since(due))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := s.runJob(ctx, tr, fmt.Sprintf("job-%d", i), plans[i], due)
			o.trials = trials[i]
			o.doneAt = time.Since(start)
			l.outs[i] = o
		}(i)
	}
	if l.after, err = s.health(ctx); err != nil {
		stopSampler()
		wg.Wait()
		return nil, err
	}
	wg.Wait()
	l.proc = since(p0)
	l.rss = peakRSSMB()
	stopSampler()
	if l.final, err = s.health(ctx); err != nil {
		return nil, err
	}

	for _, o := range l.outs {
		if o.err != "" {
			continue
		}
		l.ok++
		l.trials += o.trials
		l.latencies = append(l.latencies, ms(o.latency))
		if o.doneAt > l.elapsed {
			l.elapsed = o.doneAt
		}
	}
	l.meanLatency = mean(l.latencies)
	l.backlogGrowth = l.after.Queued - l.before.Queued
	l.backlog = l.backlogGrowth > backlogSlack
	late := append([]float64(nil), l.late...)
	l.lateP95, l.lateMax = quantile(late, 0.95), quantile(late, 1)
	l.latePeriodFrac = l.lateP95 / (1e3 / jobRate)
	l.slow = l.latePeriodFrac > 1
	return l, nil
}

// account counts a phase's jobs into the tally and marks an overloaded
// phase invalid, loudly.
func (r *run) account(l *loop, label string) {
	for _, o := range l.outs {
		r.tally.attempted++
		if o.err != "" {
			r.tally.failed++
			r.tally.problems = append(r.tally.problems, label+": "+o.err)
		}
	}
	r.printf("%s: %d jobs, mean latency %.3f ms; queue depth %d at start, %d at end of schedule (growth %d, limit %d); generator lateness p95 %.3f ms = %.3f of the %.1f ms arrival period, max %.3f ms",
		label, len(l.outs), l.meanLatency, l.before.Queued, l.after.Queued, l.backlogGrowth, backlogSlack,
		l.lateP95, l.latePeriodFrac, 1e3/jobRate, l.lateMax)
	r.tally.check(!l.backlog, "INVALID RUN (%s): sweepd backlog grew by %d jobs over the timed phase, past the %d-job limit; the offered rate exceeds what this host serves",
		label, l.backlogGrowth, backlogSlack)
	r.tally.check(!l.slow, "INVALID RUN (%s): the load generator fell behind its schedule (p95 lateness %.2f arrival periods)", label, l.latePeriodFrac)
}

// serviceSetup is one sweepd set-up in its own state directory: parse
// and validate every job spec, start the server and listener, and run
// one warm job. It returns each plan's trial count.
func (r *run) serviceSetup(name string, plans []jobPlan) (*service, []int, time.Duration, error) {
	t0 := time.Now()
	trials := make([]int, len(plans))
	for i, p := range plans {
		spec, err := scenario.Parse(p.Spec, fmt.Sprintf("job %d", i))
		if err != nil {
			return nil, nil, 0, err
		}
		trials[i] = spec.Config(sweepd.DefaultBase()).Trials * len(spec.Scenarios)
	}
	s, err := startService(filepath.Join(r.work, name))
	if err != nil {
		return nil, nil, 0, err
	}
	if o := s.runJob(context.Background(), nil, "warm", jobPlan{Spec: warmSpec(r.seed)}, time.Now()); o.err != "" {
		s.stop()
		return nil, nil, 0, fmt.Errorf("warm-up job: %s", o.err)
	}
	return s, trials, time.Since(t0), nil
}

// directResult is the CLI path's answer for a job spec: sweep.Execute
// at a different worker count than the server's.
func directResult(spec []byte) ([]byte, error) {
	sp, err := scenario.Parse(spec, "direct")
	if err != nil {
		return nil, err
	}
	cfg := sp.Config(sweepd.DefaultBase())
	cfg.Workers = workers
	res, err := sweep.Execute(cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = res.WriteJSON(&buf)
	return buf.Bytes(), err
}

// checkServed compares a seeded sample of served results with direct
// sweeps of the same specs.
func (r *run) checkServed(l *loop, plans []jobPlan) {
	for _, i := range sample(r.seed, 3, len(plans), checkJobs) {
		if l.outs[i].err != "" {
			continue // already counted as failed
		}
		want, err := directResult(plans[i].Spec)
		r.tally.check(err == nil && bytes.Equal(want, l.outs[i].result),
			"job %d: served /result differs from a direct sweep.Execute at %d workers (err %v)", i, workers, err)
	}
}

func (r *run) serviceRun() error {
	plans := jobPlans(r.seed, int(r.seconds*jobRate))
	var s *service
	var trials []int
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.stop()
		}
		var d time.Duration
		var err error
		if s, trials, d, err = r.serviceSetup(fmt.Sprintf("sweepd-%d", i), plans); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	l, err := s.openLoop(nil, plans, trials)
	s.stop()
	if err != nil {
		return err
	}
	r.account(l, "timed phase")
	r.latency("job", l.latencies)
	r.latency("loadgen.late", l.late)
	r.record["jobs_submitted"] = len(plans)
	r.record["poll_interval_ms"] = ms(pollInterval)

	trialsF := float64(max(l.trials, 1))
	secs := l.elapsed.Seconds()
	r.set("setup_s", median(setups))
	r.set("trials_per_s", float64(l.trials)/secs)
	r.set("jobs_per_s", float64(l.ok)/secs)
	r.set("cpu_ms_per_trial", ms(l.proc.cpu)/trialsF)
	r.set("alloc_mb_per_trial", float64(l.proc.allocBytes)/1e6/trialsF)
	r.set("peak_rss_mb", l.rss)
	r.set("job_p50_ms", median(l.latencies))
	r.set("job_p95_ms", quantile(l.latencies, 0.95))
	r.checkServed(l, plans)
	return nil
}

// serviceTrace runs the same schedule untraced and traced on fresh
// servers (overhead and the sweepd layer), then replays a seeded
// sample of jobs layer by layer.
func (r *run) serviceTrace() error {
	tr := r.tr
	plans := jobPlans(r.seed, int(r.seconds/float64(len(overheadOrder))*jobRate))
	specs := make([][]byte, len(plans))
	for i, p := range plans {
		specs[i] = p.Spec
	}
	r.set("scenario.parse_us", parseMicros("job", specs))

	var plainLat, tracedLat, late []float64
	var plainProc phase
	var plainTrials, nPlain int
	var traced []*loop
	for i, isTraced := range overheadOrder {
		name := fmt.Sprintf("sweepd-phase%d", i)
		s, trials, _, err := r.serviceSetup(name, plans)
		if err != nil {
			return err
		}
		var t *tracer
		if isTraced {
			t = tr
		}
		l, err := s.openLoop(t, plans, trials)
		s.stop()
		if err != nil {
			return err
		}
		r.account(l, name)
		if isTraced {
			traced = append(traced, l)
			tracedLat = append(tracedLat, l.latencies...)
			continue
		}
		nPlain++
		plainLat = append(plainLat, l.latencies...)
		late = append(late, l.late...)
		plainTrials += l.trials
		plainProc.allocObj += l.proc.allocObj
		plainProc.gcCycles += l.proc.gcCycles
		plainProc.gcCPUFrac += l.proc.gcCPUFrac
	}
	last := traced[len(traced)-1]
	r.checkServed(last, plans)
	r.set("go.gc_cpu_frac", plainProc.gcCPUFrac/float64(nPlain))
	r.set("go.gc_cycles", float64(plainProc.gcCycles)/float64(nPlain))
	r.set("go.allocs_per_trial", float64(plainProc.allocObj)/float64(max(plainTrials, 1)))
	r.set("loadgen.late_ms_p95", quantile(late, 0.95))
	r.set("loadgen.late_ms_max", quantile(late, 1))
	if m := mean(plainLat); m > 0 {
		r.set("trace.overhead_frac", mean(tracedLat)/m-1)
	}

	r.sweepdMetrics(traced)
	r.set("fleet.builds", r.values["sweepd.cache_builds"])
	return r.replayJobs(last, plans)
}

// sweepdMetrics fills the sweepd layer's metrics from traced phases.
func (r *run) sweepdMetrics(traced []*loop) {
	var submit, queue, run, resGet, repGet, polls []float64
	var builds, hits, queueMax, samples int
	for _, l := range traced {
		for _, o := range l.outs {
			if o.err != "" {
				continue
			}
			submit = append(submit, ms(o.submit))
			queue = append(queue, ms(o.queue))
			run = append(run, ms(o.run))
			resGet = append(resGet, ms(o.resultGet))
			if o.reportGet > 0 {
				repGet = append(repGet, ms(o.reportGet))
			}
			polls = append(polls, float64(o.polls))
		}
		builds += l.final.Cache.Builds - l.before.Cache.Builds
		hits += l.final.Cache.Hits - l.before.Cache.Hits
		queueMax = max(queueMax, l.queueMax)
		samples += l.healthSamples
	}
	r.set("sweepd.submit_ms", median(submit))
	r.set("sweepd.queue_ms", median(queue))
	r.set("sweepd.run_ms", median(run))
	r.set("sweepd.result_get_ms", median(resGet))
	r.set("sweepd.report_get_ms", median(repGet))
	r.set("sweepd.polls_per_job", mean(polls))
	if builds+hits > 0 {
		r.set("sweepd.cache_hit_ratio", float64(hits)/float64(builds+hits))
	}
	r.set("sweepd.cache_builds", float64(builds)/float64(len(traced)))
	r.set("sweepd.queue_depth_max", float64(queueMax))
	r.record["healthz_samples"] = samples
	r.record["poll_interval_ms"] = ms(pollInterval)

}

// replayJobs re-runs a seeded sample of the traced phase's jobs
// directly: the sweep with the server's checkpoint cadence (checkpoint
// and result encoding, report rendering), then every trial layer by
// layer, checked against the result sweepd served.
func (r *run) replayJobs(traced *loop, plans []jobPlan) error {
	tr := r.tr
	var enc, dec, ckptBytes, writes, resEnc, resBytes, render []float64
	var reps []*replayed
	for _, i := range sample(r.seed, 4, len(plans), replayJobs) {
		name := fmt.Sprintf("job-%d", i)
		spec, err := scenario.Parse(plans[i].Spec, name)
		if err != nil {
			return err
		}
		cfg := spec.Config(sweepd.DefaultBase())
		cfg.Workers = jobWorkers
		cfg.CheckpointEvery = checkpointEvery
		dir := filepath.Join(r.work, "replay-"+name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		cfg.CheckpointPath = filepath.Join(dir, "sweep.ckpt")
		var last *sweep.CheckpointState
		n := 0
		cfg.OnCheckpoint = func(st *sweep.CheckpointState) { last, n = st, n+1 }
		cfg.FleetSource = func(key sweep.FleetKey, seed int64, build func() *fleet.Fleet) *fleet.Fleet {
			h := tr.begin("fleet.build", -1, name)
			defer tr.end(h)
			return build()
		}
		res, err := sweep.Execute(cfg, nil, nil)
		if err != nil {
			return err
		}
		writes = append(writes, float64(n))
		e, d, b, err := checkpointCost(last, cfg.CheckpointPath)
		if err != nil {
			return err
		}
		enc, dec, ckptBytes = append(enc, e), append(dec, d), append(ckptBytes, b)
		e, size, err := encodeResult(res)
		if err != nil {
			return err
		}
		resEnc, resBytes = append(resEnc, e), append(resBytes, float64(size))
		t0 := time.Now()
		if err := expreport.RenderSpec(io.Discard, res, spec); err != nil {
			return err
		}
		render = append(render, ms(time.Since(t0)))

		rep := replay(tr, cfg, name)
		reps = append(reps, rep)
		served := &sweep.Result{}
		if o := traced.outs[i]; o.err != "" {
			continue // counted as failed already
		} else if err := json.Unmarshal(o.result, served); err != nil {
			r.tally.check(false, "%s: decoding served result: %v", name, err)
			continue
		}
		r.replayCheck(rep, served, name)
	}
	r.set("sweep.ckpt_encode_ms", median(enc))
	r.set("sweep.ckpt_decode_ms", median(dec))
	r.set("sweep.ckpt_bytes", median(ckptBytes))
	r.set("sweep.ckpt_writes", mean(writes))
	r.set("sweep.result_encode_ms", median(resEnc))
	r.set("sweep.result_bytes", median(resBytes))
	r.set("expreport.render_ms", median(render))
	r.layerMetrics(mergeReplays(reps))
	return nil
}

// mergeReplays pools several replays' per-trial samples.
func mergeReplays(reps []*replayed) *replayed {
	m := &replayed{}
	for _, rp := range reps {
		m.simVisible = append(m.simVisible, rp.simVisible...)
		m.messages = append(m.messages, rp.messages...)
		m.recovered += rp.recovered
		m.visibleMined += rp.visibleMined
		m.allocKB = append(m.allocKB, rp.allocKB...)
		m.aggregateUs = append(m.aggregateUs, rp.aggregateUs...)
		m.deltasUs = append(m.deltasUs, rp.deltasUs...)
	}
	return m
}
