package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef declares one printed metric. The two lists below are the
// benchmark's contract with BENCHMARK.json: every run prints exactly
// one of them (TestMetricNamesMatchBenchmarkJSON pins the match).
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, printed for every workload.
// On the two CLI workloads a "job" is one engine job (one trial, the
// unit sweep.Execute shards across workers); on sweepd-jobs it is one
// submitted scenario file.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"trials_per_s", "1/s"},
	{"cpu_ms_per_trial", "ms"},
	{"alloc_mb_per_trial", "MB"},
	{"peak_rss_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"jobs_per_s", "1/s"},
}

// perLayer are the traced run's metrics, named after the modules they
// time. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"scenario.parse_us", "us"},
	{"fleet.build_ms", "ms"},
	{"fleet.builds", "count"},
	{"fleet.reset_us", "us"},
	{"fleet.clone_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.events_per_trial", "count"},
	{"autosupport.collect_ms", "ms"},
	{"autosupport.mine_ms", "ms"},
	{"autosupport.messages_per_trial", "count"},
	{"autosupport.resolve_ratio", "ratio"},
	{"core.dataset_us", "us"},
	{"core.afr_ms", "ms"},
	{"core.gaps_ms", "ms"},
	{"core.correlation_ms", "ms"},
	{"core.extract_ms", "ms"},
	{"core.findings_ms", "ms"},
	{"core.alloc_kb_per_trial", "KB"},
	{"sweep.aggregate_us", "us"},
	{"sweep.deltas_us", "us"},
	{"sweep.ckpt_encode_ms", "ms"},
	{"sweep.ckpt_decode_ms", "ms"},
	{"sweep.ckpt_bytes", "bytes"},
	{"sweep.ckpt_writes", "count"},
	{"sweep.result_encode_ms", "ms"},
	{"sweep.result_bytes", "bytes"},
	{"expreport.render_ms", "ms"},
	{"sweepd.submit_ms", "ms"},
	{"sweepd.queue_ms", "ms"},
	{"sweepd.run_ms", "ms"},
	{"sweepd.result_get_ms", "ms"},
	{"sweepd.report_get_ms", "ms"},
	{"sweepd.polls_per_job", "count"},
	{"sweepd.cache_hit_ratio", "ratio"},
	{"sweepd.cache_builds", "count"},
	{"sweepd.queue_depth_max", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.gc_cycles", "count"},
	{"go.allocs_per_trial", "count"},
	{"loadgen.late_ms_p95", "ms"},
	{"loadgen.late_ms_max", "ms"},
	{"trace.overhead_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line a run prints.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts attempted and failed operations: trials, jobs and
// output checks alike.
type tally struct {
	attempted, failed int
	problems          []string
}

// check records one output check.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// ms and us convert durations to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// quantile is the nearest-rank q-quantile of xs (sorted in place); 0
// for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond is how many of n samples lie strictly above the nearest-rank
// q-quantile: a tail percentile is reportable once it has ten.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// procSample is a snapshot of the process counters a phase is charged
// with: wall clock, CPU time, heap allocation and GC work.
type procSample struct {
	wall       time.Time
	cpu        time.Duration
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleProc() procSample {
	ss := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSample{
		wall:       time.Now(),
		cpu:        cpu,
		allocBytes: ss[0].Value.Uint64(),
		allocObjs:  ss[1].Value.Uint64(),
		gcCycles:   ss[2].Value.Uint64(),
		gcCPU:      ss[3].Value.Float64(),
		totalCPU:   ss[4].Value.Float64(),
	}
}

// phase is the difference between two process samples.
type phase struct {
	wall, cpu            time.Duration
	allocBytes, allocObj uint64
	gcCycles             uint64
	gcCPUFrac            float64
}

func since(a procSample) phase {
	b := sampleProc()
	p := phase{
		wall:       b.wall.Sub(a.wall),
		cpu:        b.cpu - a.cpu,
		allocBytes: b.allocBytes - a.allocBytes,
		allocObj:   b.allocObjs - a.allocObjs,
		gcCycles:   b.gcCycles - a.gcCycles,
	}
	if d := b.totalCPU - a.totalCPU; d > 0 {
		p.gcCPUFrac = (b.gcCPU - a.gcCPU) / d
	}
	return p
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	// Linux reports Maxrss in KiB.
	return float64(ru.Maxrss) / 1024
}

// machine describes where a run was taken: the fields every record of
// the performance ledger carries.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	SourceSHA  string `json:"source_sha256"`
}

func describeMachine(root string) machine {
	return machine{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(root),
		SourceSHA:  sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the checkout's git revision, or "unknown" when the
// benchmark runs from an exported tree; sourceDigest identifies the
// code in either case.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod of the module under
// root (the benchmark's own directory and build outputs excluded), in
// path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == benchDir) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") && rel != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(rel + "\x00"))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// span is one timed call into a layer: name, start and end relative to
// the tracer's origin, the span that caused it (-1 for roots), and the
// trial or job it served.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     string `json:"id"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle.
func (t *tracer) begin(name string, parent int, id string) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, ID: id})
	return len(t.spans) - 1
}

// end closes the span and returns its duration.
func (t *tracer) end(h int) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[h].End = now
	return time.Duration(now - t.spans[h].Start)
}

// durations lists the closed spans of one name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// layerSummary is the per-span-name roll-up printed after a traced run.
type layerSummary struct {
	name          string
	count         int
	total, selfMs float64
}

// summary totals each span name's duration and self time: the part of
// the span no child span covers (children of one parent run serially
// in this benchmark, so their durations add).
func (t *tracer) summary() []layerSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += float64(s.End-s.Start) / 1e6
		}
	}
	by := map[string]*layerSummary{}
	var names []string
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		ls := by[s.Name]
		if ls == nil {
			ls = &layerSummary{name: s.Name}
			by[s.Name] = ls
			names = append(names, s.Name)
		}
		d := float64(s.End-s.Start) / 1e6
		ls.count++
		ls.total += d
		ls.selfMs += math.Max(0, d-child[i])
	}
	sort.Strings(names)
	out := make([]layerSummary, len(names))
	for i, n := range names {
		out[i] = *by[n]
	}
	return out
}
