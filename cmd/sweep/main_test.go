package main

// Tests for the extracted run(): table-driven flag validation pinning
// exact messages and exit codes, the validate subcommand's 0/1/2
// contract, usage staleness, and one tiny in-process sweep whose JSON
// must match a direct engine run byte for byte.

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"storagesubsys/internal/scenario"
	"storagesubsys/internal/sweep"
)

func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want string // substring of stderr
	}{
		{"bad-trials", []string{"-trials", "0"}, 2, "sweep: -trials must be at least 1"},
		{"bad-scale", []string{"-scale", "2"}, 2, "sweep: -scale must be in (0, 1.5]"},
		{"bad-budget", []string{"-budget", "-1"}, 2, "sweep: -budget must be >= 0"},
		{"bad-max-wall", []string{"-max-wall", "-1s"}, 2, "sweep: -max-wall must be >= 0"},
		{"bad-cadence", []string{"-checkpoint-every", "-1"}, 2, "sweep: -checkpoint-every must be >= 0"},
		{"bad-variance", []string{"-variance", "bogus"}, 2, `sweep: -variance is "bogus", must be none, antithetic or stratified`},
		{"resume-without-checkpoint", []string{"-resume"}, 2, "sweep: -resume requires -checkpoint to name the file to resume from"},
		{"cadence-without-checkpoint", []string{"-checkpoint-every", "8"}, 2, "sweep: -checkpoint-every requires -checkpoint"},
		{"grid-conflict", []string{"-grid", "smoke", "-grid-file", "x.json"}, 2, "sweep: -grid and -grid-file are mutually exclusive (one grid per sweep)"},
		{"unknown-grid", []string{"-grid", "nosuch"}, 2,
			`scenario: unknown grid "nosuch" (built-ins: burst, default, mine, ops, scale, smoke; scenario files go through -grid-file)` + "\n"},
		{"grid-path", []string{"-grid", "foo.json"}, 2,
			`scenario: unknown grid "foo.json" (built-ins: burst, default, mine, ops, scale, smoke; scenario files go through -grid-file)` + "\n"},
		{"missing-grid-file", []string{"-grid-file", "no-such-file.json"}, 2, "no-such-file.json"},
		{"antithetic-odd-trials", []string{"-trials", "3", "-variance", "antithetic", "-grid", "smoke"}, 2,
			`sweep: antithetic pairing needs an even trial count, got 3 (scenario "baseline" resolves to variance antithetic)`},
		{"resume-no-checkpoint-file", []string{"-resume", "-checkpoint", "definitely-absent.ckpt", "-trials", "1", "-scale", "0.004"}, 2,
			"sweep: -resume: no checkpoint at definitely-absent.ckpt"},
		{"unknown-flag", []string{"-bogus"}, 2, "flag provided but not defined"},
		{"positional-arg", []string{"frobnicate"}, 2, `sweep: unexpected argument "frobnicate" (sweep takes flags, or the "validate" subcommand; see -h)`},
		{"help", []string{"-h"}, 0, "Usage of sweep"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("run(%v) = %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
			if tc.code != 0 && stdout.Len() > 0 {
				t.Fatalf("usage error wrote to stdout: %q", stdout.String())
			}
		})
	}
}

func TestValidateSubcommand(t *testing.T) {
	t.Run("no-args", func(t *testing.T) {
		var stderr bytes.Buffer
		if code := run([]string{"validate"}, io.Discard, &stderr); code != 2 {
			t.Fatalf("validate with no files = %d, want 2", code)
		}
		want := "sweep: validate needs at least one scenario file (usage: sweep validate scenario.json...)"
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("stderr %q does not mention %q", stderr.String(), want)
		}
	})
	t.Run("valid-committed-spec", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		path := filepath.Join("..", "..", "examples", "scenarios", "smoke.json")
		if code := run([]string{"validate", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("validate %s = %d, want 0 (stderr %q)", path, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "OK") || !strings.Contains(stdout.String(), path) {
			t.Fatalf("validate stdout %q lacks the OK line for %s", stdout.String(), path)
		}
	})
	t.Run("invalid-file", func(t *testing.T) {
		bad := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(bad, []byte(`{"name": "x", "trials": -4, "scenarios": [{"name": "baseline"}]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"validate", bad}, &stdout, &stderr); code != 1 {
			t.Fatalf("validate %s = %d, want 1 (stderr %q)", bad, code, stderr.String())
		}
		if stderr.Len() == 0 {
			t.Fatal("invalid file produced no error on stderr")
		}
	})
	t.Run("mixed-files-still-fail", func(t *testing.T) {
		// One good file does not mask a bad one: exit 1, but the good
		// file's OK line is still printed.
		bad := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(bad, []byte(`not json`), 0o644); err != nil {
			t.Fatal(err)
		}
		good := filepath.Join("..", "..", "examples", "scenarios", "smoke.json")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"validate", good, bad}, &stdout, &stderr); code != 1 {
			t.Fatalf("validate good+bad = %d, want 1", code)
		}
		if !strings.Contains(stdout.String(), "OK") {
			t.Fatalf("good file's OK line missing from stdout %q", stdout.String())
		}
	})
}

// TestUsageListsEveryFlag scrapes the flag registrations out of main.go
// and requires each to be mentioned in the package doc comment, so the
// usage documentation cannot silently go stale.
func TestUsageListsEveryFlag(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatalf("reading main.go: %v", err)
	}
	doc, _, ok := strings.Cut(string(src), "package main")
	if !ok {
		t.Fatal("main.go has no package clause")
	}
	re := regexp.MustCompile(`flags\.(?:String|Int|Int64|Bool|Float64|Duration)\("([^"]+)"`)
	matches := re.FindAllStringSubmatch(string(src), -1)
	if len(matches) < 15 {
		t.Fatalf("scraped only %d flag registrations from main.go; the pattern is stale", len(matches))
	}
	for _, m := range matches {
		if !strings.Contains(doc, "-"+m[1]) {
			t.Errorf("flag -%s is not documented in the package comment", m[1])
		}
	}
}

// TestRunTinySweepMatchesEngine runs a minimal sweep through run() and
// requires the emitted -json bytes to equal a direct sweep.Execute run
// at a different worker count — the CLI adds parsing and IO, never
// arithmetic.
func TestRunTinySweepMatchesEngine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-trials", "2", "-scale", "0.004", "-grid", "smoke", "-json"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, want 0 (stderr %q)", args, code, stderr.String())
	}

	smoke, err := scenario.Grid("smoke")
	if err != nil {
		t.Fatalf("Grid(smoke): %v", err)
	}
	cfg := sweep.Config{Trials: 2, Seed: 42, Scale: 0.004, Workers: 3, Scenarios: smoke.Scenarios}
	res, err := sweep.Execute(cfg, nil, nil)
	if err != nil {
		t.Fatalf("direct Execute: %v", err)
	}
	var want bytes.Buffer
	if err := res.WriteJSON(&want); err != nil {
		t.Fatalf("encoding direct result: %v", err)
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Fatal("CLI -json bytes differ from the direct engine run")
	}
	if !strings.Contains(stderr.String(), "sweep: 1 scenarios x 2 trials") &&
		!strings.Contains(stderr.String(), "scenarios x 2 trials") {
		t.Fatalf("progress line missing from stderr: %q", stderr.String())
	}
}
