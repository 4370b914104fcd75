package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
)

// resultDigest hashes everything a simulation produces: every event
// field, every disk's (ID, Install, Remove, Replaced) — originals and
// committed replacements alike — and the bit pattern of the fleet's
// total exposure.
func resultDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	bit := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	for _, e := range res.Events {
		put(int64(e.Time))
		put(int64(e.Detected))
		put(int64(e.Type))
		put(int64(e.Cause))
		put(int64(e.Disk))
		put(int64(e.Shelf))
		put(int64(e.System))
		put(int64(e.Group))
		put(bit(e.Recovered))
	}
	for _, d := range res.Fleet.Disks {
		put(int64(d.ID))
		put(int64(d.Install))
		put(int64(d.Remove))
		put(bit(d.Replaced))
	}
	put(int64(math.Float64bits(res.Fleet.DiskYears(nil))))
	return hex.EncodeToString(h.Sum(nil))
}

// buildChurn builds the default fleet with every class's proactive
// churn rate multiplied by mult (the sweep's churnMult knob).
func buildChurn(scale float64, seed int64, mult float64) *fleet.Fleet {
	profiles := fleet.DefaultProfiles()
	for i := range profiles {
		profiles[i].ChurnPerDiskYear *= mult
	}
	return fleet.Build(profiles, scale, seed)
}

// buildSparse builds the default fleet with the given fraction of
// shelves half-populated (the sweep's sparseShelfFrac knob).
func buildSparse(scale float64, seed int64, frac float64) *fleet.Fleet {
	profiles := fleet.DefaultProfiles()
	for i := range profiles {
		profiles[i].SparseShelfFraction = frac
	}
	return fleet.Build(profiles, scale, seed)
}

// TestSimOutputPins pins the simulator's output bytes. The digests
// were captured before the per-slot stream tree was made lazy (parent
// streams held as stats.Key, leaf streams expanded on first draw) and
// before disk-model rates were resolved once per system; any change to
// which stream a process draws from, or in what order, changes them.
// Each corner exercises one lazily expanded branch: no environment
// episodes (env-hit never expanded), stochastic repair lags (repair
// stream), heavy churn, doubled disk AFR (cause stream drawn more
// often), stratified baseline counts and the antithetic mirror.
func TestSimOutputPins(t *testing.T) {
	const scale, seed = 0.02, 7
	params := func(edit func(*failmodel.Params)) *failmodel.Params {
		p := failmodel.DefaultParams()
		if edit != nil {
			edit(p)
		}
		return p
	}
	defaultFleet := func() *fleet.Fleet { return fleet.BuildDefault(scale, seed) }
	cases := []struct {
		name   string
		build  func() *fleet.Fleet
		params *failmodel.Params
		opts   Opts
		want   string
	}{
		{"default", defaultFleet, params(nil), Opts{},
			"e57c0712ca44c50c8d17bde84311b067d0944209578258e6a8a165fdd30a603f"},
		{"no-env-episodes", defaultFleet,
			params(func(p *failmodel.Params) { p.EnvEpisodeRate = 0 }), Opts{},
			"afa89151e4221782448bb0ee445f7e9db7af2733cdc47de9a9096fd31c326b8d"},
		{"repair-lag-sigma", defaultFleet,
			params(func(p *failmodel.Params) { p.RepairLagSigma = 1; p.ScaleRepairLag(8) }), Opts{},
			"60d8f1f67e204d0699df5f9ce1d723f59882339f9e61602895e280fa57d58cf4"},
		{"churn-x4", func() *fleet.Fleet { return buildChurn(scale, seed, 4) }, params(nil), Opts{},
			"aecd5ed68be2305301788d4cb4cae6bbfecd477e259c8ddd07210485c3f10169"},
		{"disk-afr-x2", defaultFleet,
			params(func(p *failmodel.Params) { p.ScaleDiskAFR(2) }), Opts{},
			"ba5cc3a9085c92c03679866bfd434348e702f22544e401433a330528a8ffd2ee"},
		{"strata", defaultFleet, params(nil), Opts{Strata: Strata{Index: 3, Count: 8, Seed: 5}},
			"5caa34f78a495aef77d3727e52802a749a055462384800eea1adc344a95af87d"},
		{"antithetic", defaultFleet, params(nil), Opts{Antithetic: true},
			"b5c1d93831c721c47fe2b0d31ceeb0e0bda9dedaed36703e9246f0b69d23c0e1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				got := resultDigest(RunWorkersOpts(c.build(), c.params, seed, workers, nil, c.opts))
				if got != c.want {
					t.Errorf("workers=%d: digest %s, want %s", workers, got, c.want)
				}
			}
		})
	}
}

// TestReplacementsKeepSystemDiskModel checks the invariant that lets
// the simulator resolve disk-model rates once per system: after a run,
// every disk — original or committed replacement — carries its
// system's DiskModel.
func TestReplacementsKeepSystemDiskModel(t *testing.T) {
	for _, c := range []struct {
		name string
		f    *fleet.Fleet
	}{
		{"baseline", fleet.BuildDefault(0.02, 7)},
		{"churn-x4", buildChurn(0.02, 7, 4)},
		{"sparse-shelves", buildSparse(0.02, 7, 0.5)},
	} {
		name, f := c.name, c.f
		initial := len(f.Disks)
		res := Run(f, failmodel.DefaultParams(), 8)
		if len(res.Fleet.Disks) <= initial {
			t.Fatalf("%s: no replacements committed", name)
		}
		for _, d := range res.Fleet.Disks {
			if want := res.Fleet.Systems[d.System].DiskModel; d.Model != want {
				t.Fatalf("%s: disk %d has model %v, system %d has %v", name, d.ID, d.Model, d.System, want)
			}
		}
	}
}
