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
		m, err := coruscant.NewMemory(cfg, coruscant.WithRecovery(pol))
		if err != nil {
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

// TestConstructionOptions covers the functional-option constructors,
// including the loud failure of a misplaced option.
func TestConstructionOptions(t *testing.T) {
	cfg := coruscant.DefaultConfig()
	cfg.Geometry.TrackWidth = 32

	rec := coruscant.NewRecorder(cfg, coruscant.NewRingSink(16))
	inj := coruscant.NewFaultInjector(0.5, 0, 1)

	u, err := coruscant.NewUnit(cfg, coruscant.WithTelemetry(rec), coruscant.WithFaults(inj))
	if err != nil {
		t.Fatal(err)
	}
	if u.Recorder() != rec {
		t.Error("WithTelemetry not applied to unit")
	}
	if _, err := coruscant.NewUnit(cfg, coruscant.WithRecovery(coruscant.DefaultRecoveryPolicy())); err == nil {
		t.Error("WithRecovery on NewUnit should fail loudly")
	}

	m, err := coruscant.NewMemory(cfg,
		coruscant.WithTelemetry(rec),
		coruscant.WithRecovery(coruscant.DefaultRecoveryPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Recovery().Enabled() {
		t.Error("WithRecovery not applied to memory")
	}
	if m.Recorder() != rec {
		t.Error("WithTelemetry not applied to memory")
	}
	bad := coruscant.RecoveryPolicy{Verify: coruscant.VerifyNMR, NMR: 4}
	if _, err := coruscant.NewMemory(cfg, coruscant.WithRecovery(bad)); err == nil {
		t.Error("invalid recovery policy should fail construction")
	}

	c, err := coruscant.NewController(cfg, coruscant.WithRecovery(coruscant.DefaultRecoveryPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Recovery().Enabled() {
		t.Error("WithRecovery not applied to controller")
	}
}

// TestRecoveredControllerExecution: a controller with faults and NMR
// recovery still delivers correct results.
func TestRecoveredControllerExecution(t *testing.T) {
	cfg := coruscant.DefaultConfig()
	cfg.Geometry.TrackWidth = 32
	inj := coruscant.NewFaultInjector(0.01, 0, 42)
	c, err := coruscant.NewController(cfg,
		coruscant.WithFaults(inj),
		coruscant.WithRecovery(coruscant.DefaultRecoveryPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	pimAddr := coruscant.Addr{Tile: 0, DBC: cfg.Geometry.DBCsPerTile - 1}
	in := coruscant.Instruction{Op: coruscant.OpcodeAdd, Src: pimAddr, Blocksize: 8, Operands: 2}
	wrong := 0
	for i := 0; i < 50; i++ {
		a, b := uint64(i%50), uint64((7*i)%50)
		ra, err := coruscant.PackLanes([]uint64{a, a, a, a}, 8, 32)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := coruscant.PackLanes([]uint64{b, b, b, b}, 8, 32)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Execute(in, []coruscant.Row{ra, rb})
		if err != nil {
			t.Fatal(err)
		}
		if coruscant.UnpackLanes(res, 8)[0] != a+b {
			wrong++
		}
	}
	if wrong > 2 {
		t.Errorf("recovered controller delivered %d/50 wrong sums", wrong)
	}
}

// TestExecuteNoFaultAllocsUnchanged pins the allocation count of the
// no-fault, no-recovery Execute path: installing then disabling
// recovery must leave the hot path allocation-identical to a memory
// that never saw the recovery layer.
func TestExecuteNoFaultAllocsUnchanged(t *testing.T) {
	cfg := coruscant.DefaultConfig()
	cfg.Geometry.TrackWidth = 32
	g := cfg.Geometry

	measure := func(m *coruscant.Memory) float64 {
		pimAddr := coruscant.Addr{Bank: 0, Tile: 0, DBC: g.DBCsPerTile - g.PIMDBCsPerTile}
		ops := []coruscant.Addr{{Bank: 0, Tile: 1}, {Bank: 0, Tile: 1, Row: 1}}
		dst := coruscant.Addr{Bank: 0, Tile: 2}
		row, err := coruscant.PackLanes([]uint64{5}, 8, 32)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range ops {
			if err := m.WriteRow(a, row); err != nil {
				t.Fatal(err)
			}
		}
		in := coruscant.Instruction{Op: coruscant.OpcodeAdd, Src: pimAddr, Blocksize: 8, Operands: 2}
		run := func() {
			if _, err := m.Execute(in, ops, dst); err != nil {
				t.Fatal(err)
			}
		}
		run() // materialize shards outside the measurement
		return testing.AllocsPerRun(50, run)
	}

	plain, err := coruscant.NewMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	toggled, err := coruscant.NewMemory(cfg, coruscant.WithRecovery(coruscant.DefaultRecoveryPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	if err := toggled.SetRecovery(coruscant.RecoveryPolicy{}); err != nil {
		t.Fatal(err)
	}

	base := measure(plain)
	after := measure(toggled)
	if after > base {
		t.Errorf("disabled-recovery Execute allocates %.1f/op, plain memory %.1f/op", after, base)
	}
}
