package memory

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/params"
	"repro/internal/pim"
)

func testMemory(t *testing.T) *Memory {
	t.Helper()
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 32
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randRow(n int, rng *rand.Rand) dbc.Row {
	r := dbc.NewRow(n)
	for i := 0; i < n; i++ {
		r.Set(i, uint8(rng.Intn(2)))
	}
	return r
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := testMemory(t)
	rng := rand.New(rand.NewSource(70))
	addrs := []isa.Addr{
		{Bank: 0, Subarray: 0, Tile: 3, DBC: 2, Row: 0},
		{Bank: 31, Subarray: 63, Tile: 15, DBC: 15, Row: 31},
		{Bank: 5, Subarray: 9, Tile: 0, DBC: 15, Row: 17}, // PIM-enabled
		{Bank: 5, Subarray: 9, Tile: 0, DBC: 15, Row: 3},  // same DBC
	}
	want := make(map[isa.Addr]dbc.Row)
	for _, a := range addrs {
		row := randRow(32, rng)
		want[a] = row
		if err := m.WriteRow(a, row); err != nil {
			t.Fatalf("WriteRow(%+v): %v", a, err)
		}
	}
	for _, a := range addrs {
		got, err := m.ReadRow(a)
		if err != nil {
			t.Fatalf("ReadRow(%+v): %v", a, err)
		}
		if !got.Equal(want[a]) {
			t.Fatalf("addr %+v = %v, want %v", a, got, want[a])
		}
	}
	if m.MaterializedDBCs() != 3 {
		t.Errorf("materialized %d DBCs, want 3 (lazy allocation)", m.MaterializedDBCs())
	}
	if m.Moves().RowWrites != 4 || m.Moves().RowReads != 4 {
		t.Errorf("moves = %+v", m.Moves())
	}
}

func TestAddressableWithoutAllocation(t *testing.T) {
	// The Table II geometry holds half a million DBCs; touching two far
	// corners must not materialize anything else.
	m := testMemory(t)
	if err := m.WriteRow(isa.Addr{Row: 0}, dbc.NewRow(32)); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteRow(isa.Addr{Bank: 31, Subarray: 63, Tile: 15, DBC: 14, Row: 31}, dbc.NewRow(32)); err != nil {
		t.Fatal(err)
	}
	if m.MaterializedDBCs() != 2 {
		t.Errorf("materialized %d DBCs, want 2", m.MaterializedDBCs())
	}
}

func TestCopyRowAcrossDBCs(t *testing.T) {
	m := testMemory(t)
	rng := rand.New(rand.NewSource(71))
	src := isa.Addr{Bank: 1, Subarray: 2, Tile: 3, DBC: 4, Row: 5}
	dst := isa.Addr{Bank: 9, Subarray: 8, Tile: 7, DBC: 6, Row: 30}
	row := randRow(32, rng)
	if err := m.WriteRow(src, row); err != nil {
		t.Fatal(err)
	}
	if err := m.CopyRow(src, dst); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadRow(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(row) {
		t.Fatalf("copied row = %v, want %v", got, row)
	}
	if m.Moves().RowCopies != 1 {
		t.Errorf("copies = %d, want 1", m.Moves().RowCopies)
	}
}

func TestExecuteStagesAndStores(t *testing.T) {
	// The full §III-A flow: operands in ordinary DBCs, staged into the
	// PIM DBC over the row buffer, added there, result stored elsewhere.
	m := testMemory(t)
	pimAddr := isa.Addr{Bank: 0, Subarray: 0, Tile: 0, DBC: 15, Row: 0}
	a := isa.Addr{Bank: 0, Subarray: 0, Tile: 2, DBC: 1, Row: 4}
	b := isa.Addr{Bank: 0, Subarray: 0, Tile: 2, DBC: 1, Row: 9}
	dst := isa.Addr{Bank: 0, Subarray: 0, Tile: 5, DBC: 0, Row: 1}

	av := []uint64{250, 17, 99, 3}
	bv := []uint64{10, 29, 1, 250}
	ra := pim.MustPackLanes(av, 8, 32)
	rb := pim.MustPackLanes(bv, 8, 32)
	if err := m.WriteRow(a, ra); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteRow(b, rb); err != nil {
		t.Fatal(err)
	}

	in := isa.Instruction{Op: isa.OpAdd, Src: pimAddr, Blocksize: 8, Operands: 2}
	res, err := m.Execute(in, []isa.Addr{a, b}, dst)
	if err != nil {
		t.Fatal(err)
	}
	got := pim.UnpackLanes(res, 8)
	for l := range av {
		want := (av[l] + bv[l]) & 0xff
		if got[l] != want {
			t.Fatalf("lane %d = %d, want %d", l, got[l], want)
		}
	}
	stored, err := m.ReadRow(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !stored.Equal(res) {
		t.Fatal("stored result differs from returned result")
	}
	if m.Moves().RowCopies < 2 {
		t.Errorf("staging should count row-buffer copies, got %+v", m.Moves())
	}
}

func TestExecuteBulkAndMult(t *testing.T) {
	m := testMemory(t)
	pimAddr := isa.Addr{Tile: 0, DBC: 15}
	a := isa.Addr{Tile: 1, DBC: 0, Row: 0}
	b := isa.Addr{Tile: 1, DBC: 0, Row: 1}
	rng := rand.New(rand.NewSource(72))
	ra, rb := randRow(32, rng), randRow(32, rng)
	if err := m.WriteRow(a, ra); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteRow(b, rb); err != nil {
		t.Fatal(err)
	}
	res, err := m.Execute(isa.Instruction{Op: isa.OpXor, Src: pimAddr, Blocksize: 8, Operands: 2},
		[]isa.Addr{a, b}, isa.Addr{Tile: 2, Row: 0})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < res.Len(); w++ {
		if res.Get(w) != ra.Get(w)^rb.Get(w) {
			t.Fatalf("XOR wire %d", w)
		}
	}

	ma := pim.MustPackLanes([]uint64{210}, 16, 32)
	mb := pim.MustPackLanes([]uint64{123}, 16, 32)
	if err := m.WriteRow(a, ma); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteRow(b, mb); err != nil {
		t.Fatal(err)
	}
	res, err = m.Execute(isa.Instruction{Op: isa.OpMult, Src: pimAddr, Blocksize: 16, Operands: 2},
		[]isa.Addr{a, b}, isa.Addr{Tile: 2, Row: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := pim.UnpackLanes(res, 16)[0]; got != 210*123 {
		t.Fatalf("mult = %d, want %d", got, 210*123)
	}
}

func TestExecuteErrors(t *testing.T) {
	m := testMemory(t)
	nonPIM := isa.Addr{Tile: 5, DBC: 0}
	if _, err := m.Execute(isa.Instruction{Op: isa.OpAdd, Src: nonPIM, Blocksize: 8, Operands: 2},
		[]isa.Addr{{}, {}}, isa.Addr{}); err == nil {
		t.Error("execution on a non-PIM DBC accepted")
	}
	pimAddr := isa.Addr{Tile: 0, DBC: 15}
	if _, err := m.Execute(isa.Instruction{Op: isa.OpAdd, Src: pimAddr, Blocksize: 8, Operands: 2},
		[]isa.Addr{{}}, isa.Addr{}); err == nil {
		t.Error("operand-count mismatch accepted")
	}
	if _, err := m.Execute(isa.Instruction{Op: isa.OpRead, Src: pimAddr},
		nil, isa.Addr{}); err == nil {
		t.Error("bypass opcode accepted by Execute")
	}
	if err := m.WriteRow(isa.Addr{Bank: 99}, dbc.NewRow(32)); err == nil {
		t.Error("out-of-range address accepted")
	}
	if err := m.WriteRow(isa.Addr{}, dbc.NewRow(5)); err == nil {
		t.Error("wrong row width accepted")
	}
}

// TestRejectedRequestsCostNothing: a request Validate rejects fails at
// planning, before memory stages an operand, on the single-request and
// the batch path alike, so Stats() and Moves() do not change. An add
// beyond the window's operand limit and a vote at a degree the window
// cannot vote wrap params.ErrBadTRD too (the wire's bad_trd).
func TestRejectedRequestsCostNothing(t *testing.T) {
	m := testMemory(t)
	pimAddr := isa.Addr{Tile: 0, DBC: 15}
	operands := make([]isa.Addr, params.TRD7)
	for i := range operands {
		operands[i] = isa.Addr{Tile: 1, Row: i}
		if err := m.WriteRow(operands[i], randRow(32, rand.New(rand.NewSource(int64(i))))); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		op     isa.OpCode
		k      int
		badTRD bool
	}{
		{isa.OpAdd, 6, true},
		{isa.OpAdd, 7, true},
		{isa.OpVote, 1, true},
		{isa.OpVote, 2, true},
		{isa.OpVote, 4, true},
		{isa.OpVote, 6, true},
		{isa.OpMult, 3, false},
		{isa.OpNot, 2, false},
	} {
		in := isa.Instruction{Op: c.op, Src: pimAddr, Blocksize: 8, Operands: c.k}
		stats, moves := m.Stats(), m.Moves()
		_, err := m.Execute(in, operands[:c.k], isa.Addr{Tile: 2})
		if !errors.Is(err, ErrInvalidRequest) || errors.Is(err, params.ErrBadTRD) != c.badTRD {
			t.Errorf("Execute %v k=%d: err %v, want ErrInvalidRequest (ErrBadTRD: %v)", c.op, c.k, err, c.badTRD)
		}
		res := m.ExecuteBatch([]Request{{In: in, Operands: operands[:c.k], Dst: isa.Addr{Tile: 2}}})
		if err := res[0].Err; !errors.Is(err, ErrInvalidRequest) || errors.Is(err, params.ErrBadTRD) != c.badTRD {
			t.Errorf("ExecuteBatch %v k=%d: err %v, want ErrInvalidRequest (ErrBadTRD: %v)", c.op, c.k, err, c.badTRD)
		}
		if got, gotMoves := m.Stats(), m.Moves(); got != stats || gotMoves != moves {
			t.Errorf("%v k=%d: rejected requests moved the ledger: stats %v -> %v, moves %+v -> %+v", c.op, c.k, stats, got, moves, gotMoves)
		}
	}
}

func TestMemoryFaultInjection(t *testing.T) {
	m := testMemory(t)
	pimAddr := isa.Addr{Tile: 0, DBC: 15}
	a := isa.Addr{Tile: 1, Row: 0}
	zero := dbc.NewRow(32)
	if err := m.WriteRow(a, zero); err != nil {
		t.Fatal(err)
	}
	m.SetFaultProfile(FaultProfile{TRProb: 1, Seed: 9})
	res, err := m.Execute(isa.Instruction{Op: isa.OpXor, Src: pimAddr, Blocksize: 8, Operands: 2},
		[]isa.Addr{a, a}, isa.Addr{Tile: 2, Row: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.OnesCount() == 0 {
		t.Error("probability-1 faults produced a clean result")
	}
}

// TestStatsCountUnitChargedSteps: every device step a PIM opcode costs
// reaches Memory.Stats(), including the steps the unit charges itself
// through dbc.Charge rather than by a DBC primitive (the multiplier's
// predicated copies and reductions, ReLU's refresh, the div/shift/fma
// step charges) — so the ledger's cycles equal the telemetry clock
// after each opcode.
func TestStatsCountUnitChargedSteps(t *testing.T) {
	pimAddr := isa.Addr{Tile: 0, DBC: 15}
	a := isa.Addr{Tile: 1, Row: 0}
	b := isa.Addr{Tile: 1, Row: 1}
	c := isa.Addr{Tile: 1, Row: 2}
	for _, in := range []isa.Instruction{
		{Op: isa.OpAdd, Blocksize: 8, Operands: 2},
		{Op: isa.OpMult, Blocksize: 16, Operands: 2},
		{Op: isa.OpMax, Blocksize: 8, Operands: 2},
		{Op: isa.OpRelu, Blocksize: 8, Operands: 1},
		{Op: isa.OpDiv, Blocksize: 8, Operands: 2},
		{Op: isa.OpMod, Blocksize: 8, Operands: 2},
		{Op: isa.OpShl, Blocksize: 8, Operands: 1, Imm: 3},
		{Op: isa.OpShr, Blocksize: 8, Operands: 1, Imm: 3},
		{Op: isa.OpFma, Blocksize: 16, Operands: 3},
		{Op: isa.OpXor, Blocksize: 8, Operands: 2},
	} {
		t.Run(in.Op.String(), func(t *testing.T) {
			m := testMemory(t)
			vals := [][]uint64{{200, 77, 5, 0}, {7, 3, 9, 3}, {1, 2, 4, 8}}
			operands := []isa.Addr{a, b, c}[:in.Operands]
			for i, addr := range operands {
				row := pim.MustPackLanes(vals[i][:32/in.Blocksize], in.Blocksize, 32)
				if err := m.WriteRow(addr, row); err != nil {
					t.Fatal(err)
				}
			}
			in.Src = pimAddr
			if _, err := m.Execute(in, operands, isa.Addr{Tile: 2}); err != nil {
				t.Fatal(err)
			}
			if got, want := uint64(m.Stats().Cycles()), m.Recorder().Cycle(); got != want {
				t.Errorf("Stats().Cycles() = %d, recorder clock = %d", got, want)
			}
		})
	}
}

func TestStatsAccumulate(t *testing.T) {
	m := testMemory(t)
	if err := m.WriteRow(isa.Addr{Row: 20}, dbc.NewRow(32)); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Cycles() == 0 {
		t.Error("no device cycles traced for an aligned write")
	}
	if s.WriteSteps != 1 {
		t.Errorf("write steps = %d, want 1", s.WriteSteps)
	}
}
