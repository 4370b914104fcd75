// Command reproduce regenerates every table and figure of the FAST '08
// storage subsystem failure study end to end: build the fleet, simulate
// the calibrated failure history, optionally mine it back out of log
// records or an on-disk AutoSupport archive, and render each artifact.
//
// Usage:
//
//	reproduce [-scale 0.25] [-seed 42] [-workers N] [-mine]
//	          [-exp all|table1|fig4|fig5|fig6|fig7|fig9|fig10|findings|span|mttdl|replacement]
//	          [-csv dir] [-write-logs dir | -read-logs dir]
//	reproduce -build-only [-scale 1.0] [-seed 42] [-workers N]
//
// At -scale 1.0 the full 39,000-system / ~1.8M-disk population is
// rebuilt; the default quarter scale reproduces every statistical
// conclusion in seconds. -workers shards both fleet construction and
// the simulation across a worker pool (0 = one per available CPU, the
// fleet.EffectiveWorkers fallback); every worker count produces
// bit-identical results. -mine routes events through the AutoSupport
// mining pipeline instead of using simulator output directly: each
// event's layered log messages are emitted, the RAID-layer records
// classified, and their serials resolved to fleet identities (in
// memory; no text is rendered or parsed). -csv additionally writes
// machine-readable figure data.
//
// The on-disk archive is the paper's data source as files: one raw log
// per system (DIR/logs/system-NNNNNN.log) and that system's last weekly
// configuration snapshot (DIR/snapshots/system-NNNNNN.json).
// -write-logs DIR writes it after simulating. -read-logs DIR replaces
// the simulator's events with those parsed, classified and resolved
// from DIR/logs/*.log, so every -exp renderer runs on the archive; the
// fleet is rebuilt and simulated from (-scale, -seed), which must match
// the writing run, to resolve the logs' disk serials. Log text is read
// as untrusted input: malformed lines and unknown serials are counted
// and skipped. -build-only builds the fleet, prints its population
// counts and exits; the full-scale CI smoke asserts them.
//
// For multi-trial runs with confidence intervals over a scenario grid,
// see cmd/sweep, which shares this command's exact per-trial code path
// (experiments.RunTrial).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"storagesubsys/internal/autosupport"
	"storagesubsys/internal/core"
	"storagesubsys/internal/experiments"
	"storagesubsys/internal/fleet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process globals, for table-driven tests of flag
// validation and small end-to-end runs. Exit codes: 0 success
// (including -h), 2 usage errors, 1 runtime failures (writing CSVs or
// the archive, reading the archive).
func run(args []string, stdout, stderr io.Writer) int {
	cfg := experiments.DefaultConfig()
	flags := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	flags.SetOutput(stderr)
	flags.Float64Var(&cfg.Scale, "scale", cfg.Scale, "population scale relative to the paper's 39,000 systems")
	flags.Int64Var(&cfg.Seed, "seed", cfg.Seed, "simulation seed")
	flags.IntVar(&cfg.Workers, "workers", 0, "fleet build + simulation worker goroutines (0 = one per CPU; any value yields identical results)")
	flags.BoolVar(&cfg.Mine, "mine", cfg.Mine, "recover events through the log emit/classify/resolve pipeline in memory (slower; no text is rendered or parsed)")
	exp := flags.String("exp", "all", "experiment to run: all, "+strings.Join(experiments.Names, ", "))
	csvDir := flags.String("csv", "", "also write machine-readable figure CSVs to this directory")
	writeLogs := flags.String("write-logs", "", "after simulating, also write the failure history as an on-disk AutoSupport archive under `DIR` (logs/, snapshots/)")
	readLogs := flags.String("read-logs", "", "replace the simulator's events with those mined from the archive's `DIR`/logs/*.log")
	buildOnly := flags.Bool("build-only", false, "build the fleet, print its population counts, and exit")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "reproduce: "+format+"\n", a...)
		return code
	}

	if flags.NArg() > 0 {
		return fail(2, "unexpected argument %q (reproduce takes flags only; see -h)", flags.Arg(0))
	}
	if cfg.Scale <= 0 || cfg.Scale > 1.5 {
		return fail(2, "-scale must be in (0, 1.5]")
	}
	if *exp != "all" && !slices.Contains(experiments.Names, *exp) {
		return fail(2, "-exp is %q, must be all, %s", *exp, strings.Join(experiments.Names, ", "))
	}
	if *readLogs != "" && cfg.Mine {
		return fail(2, "-read-logs and -mine are mutually exclusive (both replace the simulator's events)")
	}
	if *readLogs != "" && *writeLogs != "" {
		return fail(2, "-read-logs and -write-logs are mutually exclusive (an archive is either written or read)")
	}
	if *writeLogs != "" && cfg.Mine {
		return fail(2, "-write-logs and -mine are mutually exclusive (the archive records the simulated history)")
	}

	if *buildOnly && (*writeLogs != "" || *readLogs != "" || *csvDir != "") {
		return fail(2, "-build-only simulates nothing, so it writes and reads no files (drop -write-logs, -read-logs and -csv)")
	}
	if *buildOnly {
		f := fleet.BuildDefaultWorkers(cfg.Scale, cfg.Seed, cfg.Workers)
		fmt.Fprintf(stdout, "fleet: %d systems, %d shelves, %d disks, %d RAID groups (scale %g, seed %d)\n",
			len(f.Systems), len(f.Shelves), len(f.Disks), len(f.Groups), cfg.Scale, cfg.Seed)
		return 0
	}

	fmt.Fprintf(stdout, "building fleet and simulating 44 months at scale %.2f (seed %d, mine=%v)...\n",
		cfg.Scale, cfg.Seed, cfg.Mine)
	env := experiments.Setup(cfg)
	fmt.Fprintf(stdout, "fleet: %d systems, %d shelves, %d disks ever installed, %d RAID groups; %d failure events\n",
		len(env.Fleet.Systems), len(env.Fleet.Shelves), len(env.Fleet.Disks), len(env.Fleet.Groups), len(env.Events))
	if cfg.Mine {
		fmt.Fprintf(stdout, "log mining: %d events recovered from raw text, %d unresolvable\n", len(env.Events), env.MinedDropped)
	}

	if *writeLogs != "" {
		db := autosupport.Collect(env.Fleet, env.Events)
		written, err := db.WriteArchive(*writeLogs)
		if err != nil {
			return fail(1, "writing the archive: %v", err)
		}
		_, bundles, messages := db.Stats()
		fmt.Fprintf(stdout, "wrote %d system logs (%d weekly bundles, %d messages) under %s\n",
			written, bundles, messages, *writeLogs)
	}
	if *readLogs != "" {
		events, st, err := autosupport.ReadArchive(*readLogs, env.Fleet)
		if err != nil {
			return fail(1, "reading the archive: %v", err)
		}
		fmt.Fprintf(stdout, "log archive: parsed %d messages from %d files (%d malformed lines), classified %d failures (%d unresolved)\n",
			st.Messages, st.Files, st.Malformed, st.Failures, st.Unresolved)
		env.Events = events
		env.Dataset = core.NewDataset(env.Fleet, events)
	}

	if *csvDir != "" {
		files, err := env.WriteCSVs(*csvDir)
		if err != nil {
			return fail(1, "writing CSVs: %v", err)
		}
		fmt.Fprintf(stdout, "wrote %d CSV files under %s\n", len(files), *csvDir)
	}

	if *exp == "all" {
		env.RunAll(stdout)
		return 0
	}
	if err := env.Run(*exp, stdout); err != nil {
		return fail(2, "%v", err)
	}
	return 0
}
