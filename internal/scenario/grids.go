package scenario

import (
	"fmt"
	"io/fs"
	"slices"
	"strings"

	"storagesubsys/examples"
)

// GridNames lists the built-in grids in sorted order: the scenario
// files embedded by package examples, named after their file.
func GridNames() []string {
	entries, err := fs.ReadDir(examples.Grids, "scenarios")
	if err != nil {
		// The directory is part of the binary; see examples.Grids.
		panic("scenario: reading the embedded grids: " + err.Error())
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = strings.TrimSuffix(e.Name(), ".json")
	}
	return names
}

// Grid resolves a built-in grid name (a cmd/sweep or cmd/expreport
// -grid argument) to its parsed, validated spec. Only names resolve:
// a path, or any other name GridNames does not list, is an error
// pointing at -grid-file. A named grid contributes only its scenario
// list to a sweep (cfg.Scenarios); it carries no run parameters, and
// no digest enters checkpoint identity.
func Grid(name string) (*Spec, error) {
	names := GridNames()
	if !slices.Contains(names, name) {
		return nil, fmt.Errorf("scenario: unknown grid %q (built-ins: %s; scenario files go through -grid-file)",
			name, strings.Join(names, ", "))
	}
	path := "scenarios/" + name + ".json"
	data, err := fs.ReadFile(examples.Grids, path)
	if err != nil {
		return nil, fmt.Errorf("scenario: reading the embedded grid %s: %w", path, err)
	}
	return Parse(data, "examples/"+path)
}
