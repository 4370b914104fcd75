package autosupport

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"storagesubsys/internal/eventlog"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
)

// The on-disk archive layout: one raw log and one configuration
// snapshot per system that logged anything, named by system ID.
const (
	archiveLogs      = "logs"
	archiveSnapshots = "snapshots"
)

func archiveName(systemID int, ext string) string {
	return fmt.Sprintf("system-%06d.%s", systemID, ext)
}

// WriteArchive writes the database under dir as an on-disk AutoSupport
// archive: logs/system-NNNNNN.log holds a system's raw log text
// (RenderSystemLog) and snapshots/system-NNNNNN.json its configuration
// at the end of its last logged week. It returns the number of systems
// written.
func (db *Database) WriteArchive(dir string) (int, error) {
	logDir := filepath.Join(dir, archiveLogs)
	snapDir := filepath.Join(dir, archiveSnapshots)
	for _, d := range []string{logDir, snapDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return 0, err
		}
	}
	systems := db.Systems()
	for _, sysID := range systems {
		if err := os.WriteFile(filepath.Join(logDir, archiveName(sysID, "log")), []byte(db.RenderSystemLog(sysID)), 0o644); err != nil {
			return 0, err
		}
		bundles := db.bundles[sysID]
		data, err := json.MarshalIndent(TakeSnapshot(db.fleet, sysID, bundles[len(bundles)-1].Week), "", "  ")
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(filepath.Join(snapDir, archiveName(sysID, "json")), data, 0o644); err != nil {
			return 0, err
		}
	}
	return len(systems), nil
}

// ArchiveStats counts what ReadArchive found in an archive's logs.
type ArchiveStats struct {
	Files     int // log files read
	Messages  int // lines parsed into messages
	Malformed int // non-blank lines that did not parse
	Failures  int // RAID-layer failure records classified
	// Unresolved counts failure records naming a serial the fleet
	// never had; they are dropped.
	Unresolved int
}

// ReadArchive mines the logs/*.log files of an on-disk archive, in
// name order, with the paper's methodology: parse each line, classify
// the RAID-layer failure signatures, and resolve their serials against
// f, which must hold every disk the logs can name (a fleet simulated
// with the archive's seed includes the replacement disks). The log
// text is untrusted input: lines that do not parse are counted as
// malformed and skipped, unknown serials as unresolved. The events
// come back sorted by detection time, as MineEvents returns them.
func ReadArchive(dir string, f *fleet.Fleet) ([]failmodel.Event, ArchiveStats, error) {
	var st ArchiveStats
	paths, err := filepath.Glob(filepath.Join(dir, archiveLogs, "*.log"))
	if err != nil {
		return nil, st, err
	}
	if len(paths) == 0 {
		return nil, st, fmt.Errorf("no %s/*.log files under %s", archiveLogs, dir)
	}
	sort.Strings(paths)
	rv := eventlog.NewResolver(f)
	var events []failmodel.Event
	for _, path := range paths {
		msgs, malformed, err := parseLogFile(path)
		if err != nil {
			return nil, st, err
		}
		failures := eventlog.Classify(msgs)
		es, dropped := rv.ResolveAll(failures)
		events = append(events, es...)
		st.Files++
		st.Messages += len(msgs)
		st.Malformed += malformed
		st.Failures += len(failures)
		st.Unresolved += dropped
	}
	sortByTime(events)
	return events, st, nil
}

func parseLogFile(path string) ([]eventlog.Message, int, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer file.Close()
	msgs, malformed, err := eventlog.ParseLog(file)
	if err != nil {
		return nil, 0, fmt.Errorf("reading %s: %w", path, err)
	}
	return msgs, malformed, nil
}
