package scenario

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestBuiltinGrids pins the built-in grid registry: exactly the six
// embedded files, each parsing through Parse under its own name, none
// pinning run parameters, findings or assertions (-grid X must inherit
// every flag), and an unknown name failing with a pointer to
// -grid-file.
func TestBuiltinGrids(t *testing.T) {
	want := []string{"burst", "default", "mine", "ops", "scale", "smoke"}
	if got := GridNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("GridNames() = %v, want %v", got, want)
	}
	for _, name := range want {
		t.Run(name, func(t *testing.T) {
			spec, err := Grid(name)
			if err != nil {
				t.Fatalf("Grid(%q): %v", name, err)
			}
			if spec.Name != name {
				t.Errorf("grid file %s.json is named %q", name, spec.Name)
			}
			if spec.Trials != 0 || spec.Seed != 0 || spec.Scale != 0 || spec.Findings {
				t.Errorf("grid %s pins run parameters; -grid %s must inherit them from flags", name, name)
			}
			if len(spec.Assertions) != 0 {
				t.Errorf("grid %s carries assertions", name)
			}
		})
	}

	// Anything GridNames does not list — a typo, or a file path that
	// belongs to -grid-file — fails with one line naming the built-ins
	// and pointing at -grid-file.
	for _, name := range []string{"nosuch", "ops.json", "examples/scenarios/ops.json", "", "../scenarios/ops"} {
		_, err := Grid(name)
		if err == nil {
			t.Fatalf("Grid(%q) succeeded", name)
		}
		msg := err.Error()
		for _, part := range []string{"unknown grid", "burst, default, mine, ops, scale, smoke", "-grid-file"} {
			if !strings.Contains(msg, part) {
				t.Errorf("Grid(%q) error %q lacks %q", name, msg, part)
			}
		}
		if strings.Contains(msg, "\n") {
			t.Errorf("Grid(%q) error spans lines: %q", name, msg)
		}
	}
}

// TestTwinsMatchCompiledGrids: every built-in grid's embedded copy and
// its committed file under examples/scenarios/ parse to the same spec
// with the same digest, so -grid X and
// -grid-file examples/scenarios/X.json configure the same sweep.
func TestTwinsMatchCompiledGrids(t *testing.T) {
	for _, name := range GridNames() {
		builtin, err := Grid(name)
		if err != nil {
			t.Fatalf("Grid(%q): %v", name, err)
		}
		file, err := Load(filepath.Join("..", "..", "examples", "scenarios", name+".json"))
		if err != nil {
			t.Fatalf("loading the %s file: %v", name, err)
		}
		if !reflect.DeepEqual(builtin, file) {
			t.Errorf("%s: built-in and file specs differ:\n built-in: %+v\n file:     %+v", name, builtin, file)
		}
		if builtin.Digest() != file.Digest() {
			t.Errorf("%s: built-in digest %s, file digest %s", name, builtin.Digest(), file.Digest())
		}
	}
}
