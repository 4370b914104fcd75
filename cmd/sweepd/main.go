// Command sweepd is the sweep-as-a-service control plane: an HTTP
// server that accepts declarative scenario files (the same validated
// JSON cmd/sweep -grid-file consumes) as jobs, executes them on a
// bounded worker pool, streams partial results while they run, and
// serves each finished job's canonical result bytes and expreport
// confrontation.
//
// Usage:
//
//	sweepd -dir state/ [-listen 127.0.0.1:8344] [-pool 2]
//	       [-job-workers N] [-checkpoint-every 64] [-cache-mb 512]
//
// -dir names the durable state directory (required): one subdirectory
// per job holding the submitted spec, metadata, the engine checkpoint,
// and the final result. A sweepd restarted on the same -dir resumes
// every unfinished job from its checkpoint — crashes and restarts lose
// scheduling, never results. -pool bounds concurrently executing jobs
// (FIFO beyond that); -job-workers is each job's trial worker count
// (0 = one per CPU; any value yields byte-identical results);
// -checkpoint-every sets both the durability cadence and the partial-
// result refresh rate of the status endpoint; -cache-mb bounds the
// cross-job fleet cache (LRU by bytes; negative = unbounded).
//
// The API is documented in ARCHITECTURE.md (Control plane) and the
// README quick start:
//
//	POST   /v1/jobs             submit a scenario file
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        status + streaming partial results
//	GET    /v1/jobs/{id}/result final result JSON (byte-identical to
//	                            cmd/sweep -grid-file <spec> -json)
//	GET    /v1/jobs/{id}/report expreport markdown
//	DELETE /v1/jobs/{id}        cancel (drains; checkpoint kept)
//	GET    /v1/healthz          liveness, queue depth, cache stats
//
// On SIGTERM or SIGINT the server drains: running jobs stop at the
// next trial boundary and persist a final checkpoint, queued jobs stay
// persisted as queued, and the process exits 0 once everything is
// durable. The jobs a drain interrupted complete on the next start.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"storagesubsys/internal/sweepd"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Connection timeouts of the HTTP edge. A client that trickles its
// request headers or body, or parks an idle keep-alive connection,
// would otherwise hold a connection and its goroutine forever. A
// request body is one scenario file (kilobytes), so half a minute is
// generous. There is no write timeout: status polls are short, and a
// result body is written from memory at the client's pace.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the control-plane handler in the server run
// serves it with, carrying the edge timeouts above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// newFlagSet builds the command's flag set on a caller-owned error
// stream: ContinueOnError so run() can translate parse failures into
// exit codes instead of the process-exiting default.
func newFlagSet(stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// run is main minus the process globals, so tests can table-drive flag
// validation and drive a live server through a real signal. Exit
// codes: 0 success (including -h), 2 usage errors, 1 runtime errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet(stderr)
	listen := fs.String("listen", "127.0.0.1:8344", "HTTP listen address")
	dir := fs.String("dir", "", "durable state directory (required); a restarted server resumes its jobs")
	pool := fs.Int("pool", 2, "jobs executing concurrently (queued FIFO beyond this)")
	jobWorkers := fs.Int("job-workers", 0, "trial worker goroutines per job (0 = one per CPU; byte-identical output for every count)")
	every := fs.Int("checkpoint-every", 0, "checkpoint cadence in completed trials (0 = 64); also the partial-result refresh rate")
	cacheMB := fs.Int("cache-mb", 512, "cross-job fleet cache budget in MiB (LRU by bytes; negative = unbounded)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "sweepd: unexpected argument %q (sweepd takes only flags; see -h)\n", fs.Arg(0))
		return 2
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "sweepd: -dir is required (the state directory jobs persist to and resume from)")
		return 2
	}
	if *pool < 1 {
		fmt.Fprintln(stderr, "sweepd: -pool must be at least 1")
		return 2
	}
	if *every < 0 {
		fmt.Fprintln(stderr, "sweepd: -checkpoint-every must be >= 0")
		return 2
	}

	srv, err := sweepd.New(sweepd.Config{
		Dir:             *dir,
		Pool:            *pool,
		JobWorkers:      *jobWorkers,
		CheckpointEvery: *every,
		CacheBytes:      int64(*cacheMB) << 20,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(stderr, "sweepd: %v\n", err)
		srv.Drain()
		return 1
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	hs := newHTTPServer(srv.Handler())
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Fprintf(stderr, "sweepd: listening on http://%s (state %s, pool %d)\n", ln.Addr(), *dir, *pool)

	select {
	case sig := <-sigc:
		fmt.Fprintf(stderr, "sweepd: %v: draining (running jobs checkpoint, queued jobs stay queued)\n", sig)
		srv.Drain()
		hs.Close()
		<-served
		fmt.Fprintln(stderr, "sweepd: drained; unfinished jobs resume on the next start")
		return 0
	case err := <-served:
		fmt.Fprintf(stderr, "sweepd: serve: %v\n", err)
		srv.Drain()
		return 1
	}
}
