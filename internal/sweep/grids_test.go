// Built-in grids as sweep input. External test package:
// internal/scenario imports sweep and owns the grid registry.
package sweep_test

import (
	"strings"
	"testing"

	"storagesubsys/internal/scenario"
	"storagesubsys/internal/sweep"
)

// TestLoadGrid covers the registry lookup cmd/sweep -grid takes and its
// error path: every built-in resolves to a non-empty list of uniquely
// named scenarios with valid variance knobs, and an unknown name fails.
func TestLoadGrid(t *testing.T) {
	for _, name := range scenario.GridNames() {
		spec, err := scenario.Grid(name)
		if err != nil || len(spec.Scenarios) == 0 {
			t.Errorf("Grid(%q): %v (%d scenarios)", name, err, len(spec.Scenarios))
			continue
		}
		seen := map[string]bool{}
		for _, sc := range spec.Scenarios {
			if sc.Name == "" || seen[sc.Name] {
				t.Errorf("grid %s: empty or duplicate scenario name %q", name, sc.Name)
			}
			seen[sc.Name] = true
			if !sweep.ValidVariance(sc.Variance) {
				t.Errorf("grid %s: scenario %s has variance %q", name, sc.Name, sc.Variance)
			}
		}
	}
	if _, err := scenario.Grid("no-such-grid"); err == nil || !strings.Contains(err.Error(), "unknown grid") {
		t.Errorf("unknown grid error = %v", err)
	}
	if spec, err := scenario.Grid("default"); err != nil || len(spec.Scenarios) < 3 {
		t.Errorf("default grid: %v, want >= 3 scenarios", err)
	}
}
