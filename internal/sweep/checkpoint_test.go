package sweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadCheckpointRejectsEnvelope covers the envelope validation
// paths the end-to-end recovery suite cannot reach: not-JSON files,
// wrong format tags, and future versions must each produce a one-line
// actionable error, never a zero-value resume.
func TestLoadCheckpointRejectsEnvelope(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	mustFail := func(path, wantSub string) {
		t.Helper()
		if _, err := LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("LoadCheckpoint(%s) = %v, want error containing %q", path, err, wantSub)
		}
	}

	mustFail(write("garbage.ckpt", []byte("not json at all")), "truncated or corrupt")
	env := func(format string, version int) []byte {
		data, err := json.Marshal(checkpointEnvelope{Format: format, Version: version, Payload: []byte("{}")})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	mustFail(write("wrongformat.ckpt", env("something-else", 1)), "not a sweep checkpoint")
	mustFail(write("future.ckpt", env(checkpointFormat, 99)), "version 99")
	mustFail(filepath.Join(dir, "missing.ckpt"), "reading checkpoint")

	// A valid envelope whose payload digest mismatches (one flipped
	// payload byte after signing) must be ErrCheckpointCorrupt.
	st := &CheckpointState{Config: checkpointIdentity(Config{Trials: 1, Scenarios: builtinGrid(t, "smoke")})}
	st.Scenarios = make([]ScenarioCheckpoint, len(st.Config.Scenarios))
	good := filepath.Join(dir, "good.ckpt")
	if err := st.Save(good, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	flipped := []byte(strings.Replace(string(data), `"nextJob":0`, `"nextJob":7`, 1))
	if string(flipped) == string(data) {
		t.Fatal("test setup: payload byte to flip not found")
	}
	mustFail(write("flipped.ckpt", flipped), "digest mismatch")

	// And the untouched file loads.
	back, err := LoadCheckpoint(good)
	if err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	if !back.Config.equal(st.Config) || back.NextJob != 0 {
		t.Fatalf("round trip changed the state: %+v", back)
	}
}
