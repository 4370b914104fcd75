package main

// Tests for the extracted run(): table-driven flag validation pinning
// exact messages and exit codes, the -build-only population line, and
// usage staleness. The write/read archive round trip through the built
// binary lives in the repository's integration tests.

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRunFlagValidation(t *testing.T) {
	empty := t.TempDir()
	if err := os.Mkdir(filepath.Join(empty, "logs"), 0o755); err != nil {
		t.Fatal(err)
	}
	absent := filepath.Join(t.TempDir(), "absent")
	cases := []struct {
		name string
		args []string
		code int
		want string // substring of stderr
	}{
		{"zero-scale", []string{"-scale", "0"}, 2, "reproduce: -scale must be in (0, 1.5]\n"},
		{"big-scale", []string{"-scale", "2"}, 2, "reproduce: -scale must be in (0, 1.5]\n"},
		{"positional-arg", []string{"frobnicate"}, 2, `reproduce: unexpected argument "frobnicate" (reproduce takes flags only; see -h)` + "\n"},
		{"unknown-exp", []string{"-exp", "bogus"}, 2,
			`reproduce: -exp is "bogus", must be all, table1, fig4, fig5, fig6, fig7, fig9, fig10, findings, span, mttdl, replacement` + "\n"},
		{"read-logs-and-mine", []string{"-read-logs", "a", "-mine"}, 2,
			"reproduce: -read-logs and -mine are mutually exclusive (both replace the simulator's events)\n"},
		{"read-and-write-logs", []string{"-read-logs", "a", "-write-logs", "b"}, 2,
			"reproduce: -read-logs and -write-logs are mutually exclusive (an archive is either written or read)\n"},
		{"write-logs-and-mine", []string{"-write-logs", "b", "-mine"}, 2,
			"reproduce: -write-logs and -mine are mutually exclusive (the archive records the simulated history)\n"},
		{"build-only-with-files", []string{"-build-only", "-write-logs", "b"}, 2,
			"reproduce: -build-only simulates nothing, so it writes and reads no files (drop -write-logs, -read-logs and -csv)\n"},
		{"missing-archive", []string{"-scale", "0.005", "-read-logs", absent, "-exp", "table1"}, 1,
			"reproduce: reading the archive: no logs/*.log files under " + absent + "\n"},
		{"empty-archive", []string{"-scale", "0.005", "-read-logs", empty, "-exp", "table1"}, 1,
			"reproduce: reading the archive: no logs/*.log files under " + empty + "\n"},
		{"unknown-flag", []string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{"help", []string{"-h"}, 0, "Usage of reproduce"},
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
			if tc.code == 2 && stdout.Len() > 0 {
				t.Fatalf("usage error wrote to stdout: %q", stdout.String())
			}
		})
	}
}

// TestBuildOnlyLine pins -build-only's population line: the full-scale
// CI smoke greps its exact wording.
func TestBuildOnlyLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-build-only", "-scale", "0.005", "-workers", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	const want = "fleet: 196 systems, 795 shelves, 8166 disks, 1038 RAID groups (scale 0.005, seed 42)\n"
	if stdout.String() != want {
		t.Fatalf("stdout %q, want %q", stdout.String(), want)
	}
}

// TestUsageListsEveryFlag scrapes the flag names -h prints and requires
// each to be mentioned in the package doc comment, so the usage
// documentation cannot silently go stale.
func TestUsageListsEveryFlag(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-h"}, &bytes.Buffer{}, &stderr); code != 0 {
		t.Fatalf("-h exit %d", code)
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatalf("reading main.go: %v", err)
	}
	doc, _, ok := strings.Cut(string(src), "package main")
	if !ok {
		t.Fatal("main.go has no package clause")
	}
	matches := regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(stderr.String(), -1)
	if len(matches) != 9 {
		t.Fatalf("-h lists %d flags, want 9:\n%s", len(matches), stderr.String())
	}
	for _, m := range matches {
		if !strings.Contains(doc, "-"+m[1]) {
			t.Errorf("flag -%s is not documented in the package comment", m[1])
		}
	}
}
