// Integration tests pairing the telemetry recorder with the real
// engine: the recorder's ledger, cycle clock and energy must agree with
// trace.Stats exactly, faults
// must surface as tagged events, and the Chrome export of a real
// workload must validate.
package telemetry_test

import (
	"bytes"
	"testing"

	"repro/internal/dbc"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/profile"
	"repro/internal/trace"
)

func packed(t *testing.T, u *pim.Unit, vals []uint64, lane int) dbc.Row {
	t.Helper()
	r, err := pim.PackLanes(vals, lane, u.Width())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRecorderClockMatchesTraceStats drives every major PIM op and
// asserts the telemetry cycle clock equals trace.Stats.Cycles() — the
// one-cycle-per-control-step contract — and that the recorder's ledger
// and energy equal the tracer's counts and their price exactly.
func TestRecorderClockMatchesTraceStats(t *testing.T) {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	u, err := pim.NewUnit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder(cfg)
	u.SetTelemetry(rec, "u0")

	vals := []uint64{10, 20, 30, 40, 50, 60, 70, 80}
	rows := []dbc.Row{
		packed(t, u, vals, 8),
		packed(t, u, []uint64{1, 2, 3, 4, 5, 6, 7, 8}, 8),
		packed(t, u, []uint64{9, 8, 7, 6, 5, 4, 3, 2}, 8),
	}
	if _, err := u.AddMulti(rows, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := u.BulkBitwise(dbc.OpXOR, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := u.MaxTR(rows, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := u.MultiplyValues([]uint64{13, 7, 99, 250}, []uint64{11, 200, 44, 3}, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := u.ConstMultiply(rows[0], 20061, 8); err != nil {
		t.Fatal(err)
	}
	if _, _, err := u.DivMod(rows[0], rows[1], 8); err != nil {
		t.Fatal(err)
	}
	if _, err := u.FMA(rows[1], rows[2], rows[0], 4); err != nil {
		t.Fatal(err)
	}
	if _, err := u.MaxSelect(rows[0], rows[2], 8); err != nil {
		t.Fatal(err)
	}
	if _, err := u.LogicalShift(rows[0], 3, 8, true); err != nil {
		t.Fatal(err)
	}
	if _, err := u.ReLU(rows[0], 8); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Vote([]dbc.Row{rows[0], rows[0], rows[0]}); err != nil {
		t.Fatal(err)
	}
	if _, err := u.AddMultiNMR(3, rows, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := u.AddLarge(rows, 8); err != nil {
		t.Fatal(err)
	}

	stats := u.Stats()
	if got, want := rec.Cycle(), uint64(stats.Cycles()); got != want {
		t.Errorf("telemetry clock %d != trace cycles %d", got, want)
	}
	if got := rec.Stats(); got != stats {
		t.Errorf("recorder ledger %v != trace %v", got, stats)
	}
	if got, want := rec.EnergyPJ(), stats.EnergyPJ(cfg.Energy, cfg.TRD); got != want {
		t.Errorf("telemetry energy %v != trace energy %v", got, want)
	}
	// Per-op step counts mirror the trace step counters one-to-one.
	m := rec.Metrics()
	pairs := []struct {
		op   telemetry.Op
		want int
	}{
		{telemetry.OpShift, stats.ShiftSteps},
		{telemetry.OpTR, stats.TRSteps},
		{telemetry.OpWrite, stats.WriteSteps},
		{telemetry.OpRead, stats.ReadSteps},
		{telemetry.OpTW, stats.TWSteps},
		{telemetry.OpCopy, stats.CopySteps},
		{telemetry.OpLogic, stats.LogicSteps},
	}
	for _, p := range pairs {
		if got := m.Count(p.op); got != uint64(p.want) {
			t.Errorf("%v steps: telemetry %d != trace %d", p.op, got, p.want)
		}
	}
}

// TestOneChargeReachesBothLedgers charges each step kind once through
// the DBC of a unit carrying both a tracer and a recorder: the one call
// must land in both, so the tracer's counts, the recorder's ledger,
// clock and energy, and the event's priced energy all agree exactly.
func TestOneChargeReachesBothLedgers(t *testing.T) {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	for _, c := range []struct {
		op    telemetry.Op
		wires int
		want  trace.Stats
	}{
		{telemetry.OpShift, 64, trace.Stats{ShiftSteps: 1, ShiftWires: 64}},
		{telemetry.OpTR, 64, trace.Stats{TRSteps: 1, TRWires: 64}},
		{telemetry.OpWrite, 24, trace.Stats{WriteSteps: 1, WriteBits: 24}},
		{telemetry.OpRead, 8, trace.Stats{ReadSteps: 1, ReadBits: 8}},
		{telemetry.OpTW, 64, trace.Stats{TWSteps: 1, TWBits: 64}},
		{telemetry.OpCopy, 64, trace.Stats{CopySteps: 1, CopyBits: 64}},
		{telemetry.OpLogic, 0, trace.Stats{LogicSteps: 1}},
		{telemetry.OpStall, 0, trace.Stats{StallSteps: 1}},
	} {
		t.Run(c.op.String(), func(t *testing.T) {
			u, err := pim.NewUnit(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ring := telemetry.NewRingSink(8)
			rec := telemetry.NewRecorder(cfg, ring)
			u.SetTelemetry(rec, "u0")
			u.D.Charge(c.op, c.wires)

			st := u.Stats()
			if st != c.want {
				t.Fatalf("tracer %+v, want %+v", st, c.want)
			}
			if got := rec.Stats(); got != st {
				t.Errorf("recorder ledger %+v != tracer %+v", got, st)
			}
			if got := rec.Cycle(); got != 1 {
				t.Errorf("recorder clock %d, want 1", got)
			}
			pj := st.EnergyPJ(cfg.Energy, cfg.TRD)
			if got := rec.EnergyPJ(); got != pj {
				t.Errorf("recorder energy %v != priced tracer %v", got, pj)
			}
			ev := ring.Events()
			if len(ev) != 1 || ev[0].Op != c.op || ev[0].Wires != c.wires || ev[0].EnergyPJ != pj {
				t.Errorf("events %+v, want one %v step of %d wires at %v pJ", ev, c.op, c.wires, pj)
			}
		})
	}
}

// TestFaultsAppearAsTaggedEvents composes telemetry with the fault
// injector: a TR fault probability of 1 must produce tagged fault
// events in the stream.
func TestFaultsAppearAsTaggedEvents(t *testing.T) {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	u, err := pim.NewUnit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ring := telemetry.NewRingSink(4096)
	rec := telemetry.NewRecorder(cfg, ring)
	u.SetTelemetry(rec, "u0")
	u.D.SetFaultInjector(device.NewFaultInjector(1.0, 0, 42))

	rows := []dbc.Row{
		packed(t, u, []uint64{1, 2, 3, 4, 5, 6, 7, 8}, 8),
		packed(t, u, []uint64{8, 7, 6, 5, 4, 3, 2, 1}, 8),
	}
	if _, err := u.AddMulti(rows, 8); err != nil {
		t.Fatal(err)
	}

	var faults int
	for _, e := range ring.Events() {
		if e.Op == telemetry.OpFault {
			faults++
			if e.Phase != telemetry.PhaseInstant || e.Name == "" {
				t.Fatalf("fault event not tagged: %+v", e)
			}
		}
	}
	if faults == 0 {
		t.Fatal("no fault events recorded with TR fault probability 1")
	}
	if got := rec.Metrics().Count(telemetry.OpFault); got != uint64(faults) {
		t.Errorf("fault metric %d != stream count %d", got, faults)
	}
}

// TestMemoryMovesDeriveFromTelemetry checks the MoveStats fold: the
// memory's row-movement counters are views over the recorder's
// OpRow* counts, and per-DBC sources carry coordinate names.
func TestMemoryMovesDeriveFromTelemetry(t *testing.T) {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	m, err := memory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.New(cfg)
	m.SetTelemetry(telemetry.NewRecorder(cfg, prof))
	row := dbc.NewRow(64)
	row.Set(3, 1)
	a := isa.Addr{Bank: 0, Subarray: 0, Tile: 0, DBC: 0, Row: 1}
	b := isa.Addr{Bank: 0, Subarray: 0, Tile: 0, DBC: 1, Row: 2}
	if err := m.WriteRow(a, row); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadRow(a); err != nil {
		t.Fatal(err)
	}
	if err := m.CopyRow(a, b); err != nil {
		t.Fatal(err)
	}
	// CopyRow = one read + one write + one copy instant.
	moves := m.Moves()
	if moves.RowWrites != 2 || moves.RowReads != 2 || moves.RowCopies != 1 {
		t.Fatalf("moves=%+v, want writes=2 reads=2 copies=1", moves)
	}
	if snaps := prof.Snapshot(); len(snaps) == 0 || snaps[0].Src != "b0.s0.t0.d0" {
		t.Errorf("per-DBC source b0.s0.t0.d0 missing, have %+v", snaps)
	}

	// Replacing the recorder resets the derived counters and re-attaches
	// materialized DBCs.
	ring := telemetry.NewRingSink(64)
	m.SetTelemetry(telemetry.NewRecorder(cfg, ring))
	if got := m.Moves(); got != (memory.MoveStats{}) {
		t.Fatalf("moves after recorder swap = %+v, want zero", got)
	}
	if _, err := m.ReadRow(a); err != nil {
		t.Fatal(err)
	}
	if got := m.Moves(); got.RowReads != 1 {
		t.Fatalf("moves after swap+read = %+v, want RowReads=1", got)
	}
	if ring.Len() == 0 {
		t.Fatal("new sink saw no events from re-attached DBCs")
	}
	m.SetTelemetry(nil)
	if m.Recorder() == nil {
		t.Fatal("SetTelemetry(nil) must install a fresh recorder, not disable")
	}
}

// TestChromeExportOfRealWorkloadValidates runs a cpim program through a
// memory with a Chrome sink attached and validates the export.
func TestChromeExportOfRealWorkloadValidates(t *testing.T) {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	m, err := memory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := telemetry.NewRecorder(cfg, telemetry.NewChromeSink(&buf))
	m.SetTelemetry(rec)

	pimAddr := isa.Addr{Bank: 0, Subarray: 0, Tile: 0, DBC: cfg.Geometry.DBCsPerTile - 1, Row: 0}
	opA := isa.Addr{Bank: 0, Subarray: 0, Tile: 1, DBC: 0, Row: 0}
	opB := isa.Addr{Bank: 0, Subarray: 0, Tile: 1, DBC: 0, Row: 1}
	dst := isa.Addr{Bank: 0, Subarray: 0, Tile: 1, DBC: 1, Row: 0}
	rowA := dbc.NewRow(64)
	rowB := dbc.NewRow(64)
	for i := 0; i < 64; i += 3 {
		rowA.Set(i, 1)
		rowB.Set(i, 1)
	}
	if err := m.WriteRow(opA, rowA); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteRow(opB, rowB); err != nil {
		t.Fatal(err)
	}
	in := isa.Instruction{Op: isa.OpXor, Src: pimAddr, Blocksize: 8, Operands: 2}
	if _, err := m.Execute(in, []isa.Addr{opA, opB}, dst); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	records, err := telemetry.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sawSpan, sawMove bool
	for _, r := range records {
		if r.Ph == "B" && r.Name == "exec-xor" {
			sawSpan = true
		}
		if r.Cat == "move" {
			sawMove = true
		}
	}
	if !sawSpan {
		t.Error("no exec-xor span in export")
	}
	if !sawMove {
		t.Error("no row-movement instants in export")
	}
}
