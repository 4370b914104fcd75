// End-to-end integration tests driving the actual command binaries:
// reproduce writes a raw AutoSupport archive to disk, mines it back, and
// regenerates figures. These exercise the repository exactly as a user
// would.
package storagesubsys_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmd compiles one of the repo's commands into dir and returns the
// binary path.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// TestArchiveRoundTrip writes the simulated history as an on-disk
// archive and reads it back: the table mined from the log files must be
// byte-identical to the direct run's, with every line parsed and every
// failure resolved.
func TestArchiveRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	reproduce := buildCmd(t, dir, "reproduce")

	asup := filepath.Join(dir, "asup")
	direct := run(t, reproduce, "-scale", "0.005", "-seed", "42", "-write-logs", asup, "-exp", "table1")
	if !strings.Contains(direct, "wrote") {
		t.Fatalf("reproduce -write-logs output: %s", direct)
	}
	logs, err := filepath.Glob(filepath.Join(asup, "logs", "*.log"))
	if err != nil || len(logs) == 0 {
		t.Fatalf("no logs written: %v", err)
	}
	snaps, _ := filepath.Glob(filepath.Join(asup, "snapshots", "*.json"))
	if len(snaps) != len(logs) {
		t.Fatalf("%d snapshots for %d logs", len(snaps), len(logs))
	}

	mined := run(t, reproduce, "-scale", "0.005", "-seed", "42", "-read-logs", asup, "-exp", "table1")
	if !strings.Contains(mined, "(0 malformed lines)") || !strings.Contains(mined, "(0 unresolved)") {
		t.Errorf("archive mining lost lines or records:\n%s", mined)
	}
	if tableTail(t, direct) != tableTail(t, mined) {
		t.Errorf("direct vs archive table1 differ:\n%s\nvs\n%s", tableTail(t, direct), tableTail(t, mined))
	}
}

// tableTail returns a reproduce run's output from table1's "Overview"
// heading on, dropping the run's preamble lines.
func tableTail(t *testing.T, s string) string {
	t.Helper()
	idx := strings.Index(s, "Overview")
	if idx < 0 {
		t.Fatalf("no table in output:\n%s", s)
	}
	return s[idx:]
}

func TestReproduceCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	reproduce := buildCmd(t, dir, "reproduce")

	out := run(t, reproduce, "-scale", "0.01", "-seed", "42", "-exp", "fig4")
	for _, needle := range []string{"excluding Disk H", "Near-line", "DiskYears"} {
		if !strings.Contains(out, needle) {
			t.Errorf("reproduce fig4 missing %q", needle)
		}
	}

	// The mined pipeline must produce the identical table1.
	direct := run(t, reproduce, "-scale", "0.01", "-seed", "42", "-exp", "table1")
	mined := run(t, reproduce, "-scale", "0.01", "-seed", "42", "-mine", "-exp", "table1")
	if tableTail(t, direct) != tableTail(t, mined) {
		t.Errorf("direct vs mined table1 differ:\n%s\nvs\n%s", tableTail(t, direct), tableTail(t, mined))
	}

	// Bad flags exit non-zero.
	if err := exec.Command(reproduce, "-scale", "-1").Run(); err == nil {
		t.Error("negative scale must fail")
	}
	if err := exec.Command(reproduce, "-exp", "bogus").Run(); err == nil {
		t.Error("unknown experiment must fail")
	}
}
