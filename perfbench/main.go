// Command perfbench is the repository benchmark. It drives the
// reproduction only through its public entry points — sweep.Execute
// for the CLI path, a real sweepd server behind a loopback HTTP
// listener for the service path — and times the layers from outside,
// around calls into each module's exported functions.
//
// Run it from the repository root through its build wrapper:
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//	trials-steady  one long sweep over the smoke grid with findings
//	sweepd-jobs    an open loop of small scenario-file jobs to sweepd
//	mine-logs      one long sweep over the mine grid (log pipeline)
//
// BENCHMARK.json declares only trials-steady and mine-logs: on a
// shared 2-core host, neighbour load moved sweepd-jobs' job latency
// medians by more than the largest allowed bound between sets of runs.
// It stays runnable, and the CLI workloads' traced runs still time the
// sweepd layer with one job of their own spec.
//
// With --trace 0 the run measures the end-to-end metrics; with
// --trace 1 it measures the per-layer metrics: the same work untraced
// and traced (the difference is trace.overhead_frac), then a replay of
// representative trials layer by layer. Either way it checks the
// program's outputs outside the timed phase, prints a run record
// (machine, commit, seed, offered rate, sample counts, result digest)
// and, as its last line, one JSON object with the metrics. A failed
// check, a failed trial or job, or an overloaded run is reported on
// that line as not correct and makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Workload names.
const (
	wlSteady  = "trials-steady"
	wlService = "sweepd-jobs"
	wlMine    = "mine-logs"
)

var workloads = []string{wlSteady, wlService, wlMine}

const (
	benchDir  = "perfbench"
	buildDir  = ".bench_build"
	setupReps = 7 // set-ups per run; setup_s is their median
)

// run is one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string  // scratch state directory, removed at exit
	tr       *tracer // traced runs only
	tally    tally
	values   map[string]float64
	record   map[string]any
}

// printf writes one human-readable line of the run record.
func (r *run) printf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

func (r *run) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.printf("metric %s undefined (%v); reported as 0", name, v)
		v = 0
	}
	r.values[name] = v
}

// latency prints a latency series the way the metrics guide asks: the
// median, the 95th percentile with how many samples lie beyond it, and
// the highest percentile that keeps ten samples beyond it.
func (r *run) latency(name string, xs []float64) {
	xs = append([]float64(nil), xs...)
	n := len(xs)
	line := fmt.Sprintf("%s latency: n=%d p50=%.3f ms p95=%.3f ms (%d samples beyond)",
		name, n, median(xs), quantile(xs, 0.95), beyond(n, 0.95))
	if n > 10 {
		q := 1 - 10/float64(n)
		line += fmt.Sprintf(", p%.1f=%.3f ms (highest with >= 10 beyond)", 100*q, quantile(xs, q))
	}
	r.printf("%s", line)
	r.record[name+"_samples"] = n
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 30, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(filepath.Join(root, buildDir), "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	r := &run{
		workload: *workload, seed: *seed, seconds: float64(*seconds), trace: *trace == 1,
		work: work, values: map[string]float64{}, record: map[string]any{},
	}
	m := describeMachine(root)
	r.record["machine"] = m
	r.record["workload"], r.record["seed"], r.record["seconds"], r.record["trace"] = r.workload, r.seed, *seconds, *trace
	if r.workload == wlService {
		r.record["offered_jobs_per_s"] = jobRate
	}
	if r.trace {
		r.tr = newTracer()
	}

	switch {
	case r.workload == wlService && r.trace:
		err = r.serviceTrace()
	case r.workload == wlService:
		err = r.serviceRun()
	case r.trace:
		err = r.cliTrace()
	default:
		err = r.cliRun()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if r.trace {
		r.writeTrace(filepath.Join(root, buildDir, fmt.Sprintf("trace-%s-seed%d.jsonl", r.workload, r.seed)))
	}
	return r.finish()
}

// writeTrace writes the spans out and prints each layer's totals.
func (r *run) writeTrace(path string) {
	r.printf("%-22s %8s %12s %12s", "span", "count", "total_ms", "self_ms")
	for _, ls := range r.tr.summary() {
		r.printf("%-22s %8d %12.3f %12.3f", ls.name, ls.count, ls.total, ls.selfMs)
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		return
	}
	enc := json.NewEncoder(f)
	r.tr.mu.Lock()
	for _, s := range r.tr.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.tr.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		return
	}
	r.printf("spans written to %s", filepath.Join(buildDir, filepath.Base(path)))
}

// outcome assembles the result line from the metrics the run measured
// and its tally. It prints exactly the declared metric list of the
// run's mode; measuring an undeclared metric is a bug and fails the run.
func (r *run) outcome() outcome {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	out := outcome{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
	}
	var extra []string
	for name := range r.values {
		if _, ok := out.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		r.tally.check(false, "undeclared metrics measured: %v", extra)
	}
	out.Attempted = max(r.tally.attempted, 1)
	out.Failed = r.tally.failed
	out.Correct = r.tally.failed == 0
	return out
}

// finish prints the run record and the result line, and picks the
// exit code.
func (r *run) finish() int {
	out := r.outcome()
	r.record["attempted"], r.record["failed"] = out.Attempted, out.Failed
	r.record["failed_frac"] = float64(out.Failed) / float64(out.Attempted)
	for _, p := range r.tally.problems {
		r.printf("FAILED: %s", p)
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	rec, err := json.Marshal(r.record)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding run record:", err)
		return 1
	}
	r.printf("record %s", rec)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
