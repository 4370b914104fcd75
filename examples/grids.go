// Package examples holds the built-in scenario grids: the six
// committed scenario files under scenarios/ that cmd/sweep -grid and
// cmd/expreport -grid name, compiled into every binary that resolves
// them. internal/scenario (Grid, GridNames) is the only reader; every
// grid passes through scenario.Parse like any -grid-file spec.
//
// The embed lives here, not in internal/scenario, because go:embed
// cannot reach a parent directory. The other scenario files in
// scenarios/ (worked examples that pin their own run parameters) are
// deliberately not embedded: they are -grid-file inputs, not names.
package examples

import "embed"

// Grids holds scenarios/<name>.json for every built-in grid name.
//
//go:embed scenarios/burst.json scenarios/default.json scenarios/mine.json
//go:embed scenarios/ops.json scenarios/scale.json scenarios/smoke.json
var Grids embed.FS
