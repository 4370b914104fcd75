package eventlog

import (
	"testing"

	"storagesubsys/internal/failmodel"
)

// FuzzParseLine drives the log-line decoder with arbitrary text, the
// input an on-disk archive hands it: it must never panic, and every
// line it accepts must decode to a fixpoint — rendering the decoded
// message and parsing that again yields the same message. The seed
// corpus is one emitted chain per failure type, a multipath-failover
// chain and the noise lines of examples/logmining; every emitted
// message must also re-render byte-exactly after a parse.
func FuzzParseLine(f *testing.F) {
	res := smallRun(f)
	em := NewEmitter(res.Fleet)
	seen := map[failmodel.FailureType]bool{}
	failover := false
	for _, e := range res.Events {
		if e.Recovered {
			if failover {
				continue
			}
			failover = true
		} else {
			if seen[e.Type] {
				continue
			}
			seen[e.Type] = true
		}
		for _, m := range em.Emit(e) {
			line := m.Render()
			got, err := ParseLine(line)
			if err != nil {
				f.Fatalf("emitted line %q rejected: %v", line, err)
			}
			if got.Render() != line {
				f.Fatalf("emitted line %q re-renders as %q", line, got.Render())
			}
			f.Add(line)
		}
	}
	if len(seen) != len(failmodel.Types) || !failover {
		f.Fatalf("seed run covers %d failure types (failover chain: %v)", len(seen), failover)
	}
	f.Add("Thu Mar 4 11:00:00 UTC 2004 [raid.scrub.start:info]: Weekly scrub started on volume vol0.")
	f.Add("corrupted line that does not parse")
	// Timestamps time.Parse accepts but Render cannot reproduce: a
	// fractional second, and a GMT offset zone.
	f.Add("Thu Mar  4 11:00:00.5 UTC 2004 [raid.scrub.start:info]: Weekly scrub started on volume vol0.")
	f.Add("Thu Mar  4 11:00:00 GMT+3 2004 [raid.scrub.start:info]: Weekly scrub started on volume vol0.")

	f.Fuzz(func(t *testing.T, line string) {
		m, err := ParseLine(line)
		if err != nil {
			return
		}
		rendered := m.Render()
		again, err := ParseLine(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rejected its rendering %q: %v", line, rendered, err)
		}
		if !sameMessage(m, again) {
			t.Fatalf("not a fixpoint: %q decodes to %+v, its rendering %q to %+v", line, m, rendered, again)
		}
		if again.Render() != rendered {
			t.Fatalf("rendering %q re-renders as %q", rendered, again.Render())
		}
	})
}

// sameMessage compares decoded messages field by field; the times must
// be the same instant in the same named zone.
func sameMessage(a, b Message) bool {
	an, ao := a.Time.Zone()
	bn, bo := b.Time.Zone()
	return a.Time.Equal(b.Time) && an == bn && ao == bo &&
		a.Tag == b.Tag && a.Severity == b.Severity && a.Device == b.Device &&
		a.Serial == b.Serial && a.Text == b.Text
}
