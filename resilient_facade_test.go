package coruscant_test

import (
	"errors"
	"testing"

	coruscant "repro"
)

// The recovery-layer façade tests drive detection, retry, degradation
// and the error taxonomy exactly as a downstream user would.

// TestErrorTaxonomyRoundTrips: every sentinel must survive errors.Is
// from the layer that raises it through the façade re-export.
func TestErrorTaxonomyRoundTrips(t *testing.T) {
	t.Run("ErrBadTRD", func(t *testing.T) {
		cfg := coruscant.DefaultConfig()
		cfg.TRD = 4
		if _, err := coruscant.NewUnit(cfg); !errors.Is(err, coruscant.ErrBadTRD) {
			t.Errorf("TRD=4 construction: %v", err)
		}
		u := newUnit(t, 32)
		// Operand count beyond the TR window.
		rows := make([]coruscant.Row, 9)
		for i := range rows {
			rows[i] = coruscant.NewRow(32)
		}
		if _, err := u.AddMulti(rows, 8); !errors.Is(err, coruscant.ErrBadTRD) {
			t.Errorf("9-operand add on TRD7: %v", err)
		}
	})

	t.Run("ErrLaneOverflow", func(t *testing.T) {
		if _, err := coruscant.PackLanes([]uint64{256}, 8, 32); !errors.Is(err, coruscant.ErrLaneOverflow) {
			t.Errorf("PackLanes(256, lane 8): %v", err)
		}
		u := newUnit(t, 32)
		a, err := coruscant.PackLanes([]uint64{300, 1}, 16, 32)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := u.Multiply(a, a, 8); !errors.Is(err, coruscant.ErrLaneOverflow) {
			t.Errorf("Multiply with an operand beyond the half-lane: %v", err)
		}
	})

	t.Run("ErrCrossDBC", func(t *testing.T) {
		cfg := coruscant.DefaultConfig()
		cfg.Geometry.TrackWidth = 32
		m, err := coruscant.NewMemory(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := cfg.Geometry
		pimAddr := coruscant.Addr{Bank: 0, Tile: 0, DBC: g.DBCsPerTile - g.PIMDBCsPerTile}
		in := coruscant.Instruction{Op: coruscant.OpcodeAdd, Src: pimAddr, Blocksize: 8, Operands: 2}
		ops := []coruscant.Addr{{Bank: 1, Tile: 1}, {Bank: 0, Tile: 1, Row: 1}}
		if _, err := m.Execute(in, ops, coruscant.Addr{Tile: 2}); !errors.Is(err, coruscant.ErrCrossDBC) {
			t.Errorf("cross-bank operand: %v", err)
		}
	})

	t.Run("ErrUnverified", func(t *testing.T) {
		u := newUnit(t, 32)
		pol := coruscant.RecoveryPolicy{Verify: coruscant.VerifyDup, MaxRetries: 1}
		ex, err := coruscant.NewRecoveryExecutor(u, pol)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		_, _, err = ex.Do("op", func() (coruscant.Row, error) {
			calls++
			r := coruscant.NewRow(32)
			r.Set(0, uint8(calls%2))
			return r, nil
		})
		if !errors.Is(err, coruscant.ErrUnverified) {
			t.Errorf("persistent dup disagreement: %v", err)
		}
	})

	t.Run("ErrQuarantined", func(t *testing.T) {
		cfg := coruscant.DefaultConfig()
		cfg.Geometry.TrackWidth = 32
		cfg.Geometry.SubarraysPerBank = 1 // one PIM DBC per bank: no spare
		pol := coruscant.DefaultRecoveryPolicy()
		pol.QuarantineAfter = 3
		m, err := coruscant.NewMemory(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetRecovery(pol); err != nil {
			t.Fatal(err)
		}
		m.SetFaultProfile(coruscant.FaultProfile{TRProb: 0.05, Seed: 5})
		g := cfg.Geometry
		pimAddr := coruscant.Addr{Bank: 0, Tile: 0, DBC: g.DBCsPerTile - g.PIMDBCsPerTile}
		ops := []coruscant.Addr{{Bank: 0, Tile: 1}, {Bank: 0, Tile: 1, Row: 1}}
		row, err := coruscant.PackLanes([]uint64{3}, 8, 32)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range ops {
			if err := m.WriteRow(a, row); err != nil {
				t.Fatal(err)
			}
		}
		in := coruscant.Instruction{Op: coruscant.OpcodeAdd, Src: pimAddr, Blocksize: 8, Operands: 2}
		var lastErr error
		for i := 0; i < 600; i++ {
			if _, lastErr = m.Execute(in, ops, coruscant.Addr{Tile: 2}); lastErr != nil {
				break
			}
		}
		if !errors.Is(lastErr, coruscant.ErrQuarantined) {
			t.Errorf("spare-exhausted bank: %v", lastErr)
		}
		if h := m.Health(); len(h.Quarantined) == 0 {
			t.Error("health ledger recorded no quarantine")
		}
	})
}

// TestFacadeSetters covers attachment through the setters, including
// the rejection of an invalid recovery policy.
func TestFacadeSetters(t *testing.T) {
	cfg := coruscant.DefaultConfig()
	cfg.Geometry.TrackWidth = 32

	rec := coruscant.NewRecorder(cfg, coruscant.NewRingSink(16))

	u, err := coruscant.NewUnit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u.SetTelemetry(rec, "unit")
	if u.Recorder() != rec {
		t.Error("SetTelemetry not applied to unit")
	}

	m, err := coruscant.NewMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTelemetry(rec)
	if err := m.SetRecovery(coruscant.DefaultRecoveryPolicy()); err != nil {
		t.Fatal(err)
	}
	if !m.Recovery().Enabled() {
		t.Error("SetRecovery not applied to memory")
	}
	if m.Recorder() != rec {
		t.Error("SetTelemetry not applied to memory")
	}
	bad := coruscant.RecoveryPolicy{Verify: coruscant.VerifyNMR, NMR: 4}
	if err := m.SetRecovery(bad); err == nil {
		t.Error("invalid recovery policy accepted by SetRecovery")
	}

	// A standalone unit takes its recovery policy from the executor
	// that wraps it.
	ex, err := coruscant.NewRecoveryExecutor(u, coruscant.DefaultRecoveryPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Policy.Enabled() {
		t.Error("NewRecoveryExecutor did not install the policy")
	}
}

// TestRecoveredControllerExecution: the memory controller with faults
// and NMR recovery still delivers correct results.
func TestRecoveredControllerExecution(t *testing.T) {
	cfg := coruscant.DefaultConfig()
	cfg.Geometry.TrackWidth = 32
	m, err := coruscant.NewMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetRecovery(coruscant.DefaultRecoveryPolicy()); err != nil {
		t.Fatal(err)
	}
	m.SetFaultProfile(coruscant.FaultProfile{TRProb: 0.01, Seed: 42})
	pimAddr := coruscant.Addr{Tile: 0, DBC: cfg.Geometry.DBCsPerTile - 1}
	in := coruscant.Instruction{Op: coruscant.OpcodeAdd, Src: pimAddr, Blocksize: 8, Operands: 2}
	ops := []coruscant.Addr{{Tile: 1}, {Tile: 1, Row: 1}}
	wrong := 0
	for i := 0; i < 50; i++ {
		a, b := uint64(i%50), uint64((7*i)%50)
		for j, v := range []uint64{a, b} {
			r, err := coruscant.PackLanes([]uint64{v, v, v, v}, 8, 32)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.WriteRow(ops[j], r); err != nil {
				t.Fatal(err)
			}
		}
		res, err := m.Execute(in, ops, coruscant.Addr{Tile: 2})
		if err != nil {
			t.Fatal(err)
		}
		if coruscant.UnpackLanes(res, 8)[0] != a+b {
			wrong++
		}
	}
	if wrong > 2 {
		t.Errorf("recovered memory delivered %d/50 wrong sums", wrong)
	}
	if m.Health().TotalDetected == 0 {
		t.Error("no fault was detected, so recovery was never exercised")
	}
}
