package isa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dbc"
	"repro/internal/params"
	"repro/internal/pim"
)

func testConfig() params.Config {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 32
	return cfg
}

func TestAddrLinearRoundTrip(t *testing.T) {
	g := params.DefaultGeometry()
	check := func(b, s, ti, d, r uint8) bool {
		a := Addr{
			Bank:     int(b) % g.Banks,
			Subarray: int(s) % g.SubarraysPerBank,
			Tile:     int(ti) % g.TilesPerSubarray,
			DBC:      int(d) % g.DBCsPerTile,
			Row:      int(r) % g.RowsPerDBC,
		}
		return AddrOfLinear(a.Linear(g), g) == a
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrValid(t *testing.T) {
	g := params.DefaultGeometry()
	if !(Addr{Bank: 31, Subarray: 63, Tile: 15, DBC: 15, Row: 31}).Valid(g) {
		t.Error("max address rejected")
	}
	for _, a := range []Addr{
		{Bank: 32}, {Subarray: 64}, {Tile: 16}, {DBC: 16}, {Row: 32}, {Bank: -1},
	} {
		if a.Valid(g) {
			t.Errorf("invalid address %+v accepted", a)
		}
	}
}

func TestIsPIMEnabled(t *testing.T) {
	g := params.DefaultGeometry()
	if !(Addr{Tile: 0, DBC: 15}).IsPIMEnabled(g) {
		t.Error("PIM DBC not recognized")
	}
	if (Addr{Tile: 1, DBC: 15}).IsPIMEnabled(g) {
		t.Error("non-PIM tile recognized as PIM")
	}
	if (Addr{Tile: 0, DBC: 0}).IsPIMEnabled(g) {
		t.Error("ordinary DBC recognized as PIM")
	}
}

func TestInstructionValidate(t *testing.T) {
	g := params.DefaultGeometry()
	ok := Instruction{Op: OpAdd, Src: Addr{}, Blocksize: 8, Operands: 2}
	if err := ok.Validate(g, params.TRD7); err != nil {
		t.Errorf("valid instruction rejected: %v", err)
	}
	bad := ok
	bad.Blocksize = 7
	if err := bad.Validate(g, params.TRD7); err == nil {
		t.Error("blocksize 7 accepted")
	}
	bad = ok
	bad.Operands = 8
	if err := bad.Validate(g, params.TRD7); err == nil {
		t.Error("8 operands accepted for TRD=7")
	}
	bad = ok
	bad.Src.Bank = 99
	if err := bad.Validate(g, params.TRD7); err == nil {
		t.Error("out-of-range address accepted")
	}
	// Reads need no blocksize.
	rd := Instruction{Op: OpRead, Src: Addr{Row: 3}}
	if err := rd.Validate(g, params.TRD7); err != nil {
		t.Errorf("read rejected: %v", err)
	}
}

func TestInstructionString(t *testing.T) {
	in := Instruction{Op: OpAdd, Src: Addr{Bank: 1, Row: 5}, Blocksize: 8, Operands: 2}
	s := in.String()
	if s == "" || OpAdd.String() != "add" {
		t.Errorf("bad rendering %q", s)
	}
}

// dispatch runs a cpim instruction the way the memory controller
// (internal/memory) does once a request's operands are staged:
// Validate, then Dispatch on the PIM unit. The TestController tests
// drive every kernel case through it.
func dispatch(u *pim.Unit, in Instruction, operands []dbc.Row) (dbc.Row, error) {
	if err := in.Validate(params.DefaultGeometry(), u.TRD()); err != nil {
		return dbc.Row{}, err
	}
	res, _, err := Dispatch(u, in, operands)
	return res, err
}

func TestControllerBulkOps(t *testing.T) {
	u := pim.MustNewUnit(testConfig())
	rng := rand.New(rand.NewSource(3))
	a := randRow(32, rng)
	b := randRow(32, rng)
	for _, tc := range []struct {
		op  OpCode
		ref func(x, y uint8) uint8
	}{
		{OpAnd, func(x, y uint8) uint8 { return x & y }},
		{OpOr, func(x, y uint8) uint8 { return x | y }},
		{OpXor, func(x, y uint8) uint8 { return x ^ y }},
		{OpNand, func(x, y uint8) uint8 { return 1 - x&y }},
		{OpNor, func(x, y uint8) uint8 { return 1 - (x | y) }},
		{OpXnor, func(x, y uint8) uint8 { return 1 - x ^ y }},
	} {
		got, err := dispatch(u, Instruction{Op: tc.op, Blocksize: 8, Operands: 2}, []dbc.Row{a, b})
		if err != nil {
			t.Fatalf("%v: %v", tc.op, err)
		}
		for w := 0; w < got.Len(); w++ {
			if got.Get(w) != tc.ref(a.Get(w), b.Get(w)) {
				t.Fatalf("%v wire %d = %d", tc.op, w, got.Get(w))
			}
		}
	}
}

func TestControllerAddMult(t *testing.T) {
	u := pim.MustNewUnit(testConfig())
	a := pim.MustPackLanes([]uint64{200, 13, 40, 5}, 8, 32)
	b := pim.MustPackLanes([]uint64{100, 29, 17, 250}, 8, 32)
	sum, err := dispatch(u, Instruction{Op: OpAdd, Blocksize: 8, Operands: 2}, []dbc.Row{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{(200 + 100) % 256, 42, 57, 255}
	for i, v := range pim.UnpackLanes(sum, 8) {
		if v != want[i] {
			t.Fatalf("add lane %d = %d, want %d", i, v, want[i])
		}
	}

	ma := pim.MustPackLanes([]uint64{12, 255}, 16, 32)
	mb := pim.MustPackLanes([]uint64{11, 255}, 16, 32)
	prod, err := dispatch(u, Instruction{Op: OpMult, Blocksize: 16, Operands: 2}, []dbc.Row{ma, mb})
	if err != nil {
		t.Fatal(err)
	}
	got := pim.UnpackLanes(prod, 16)
	if got[0] != 132 || got[1] != 255*255 {
		t.Fatalf("mult = %v", got)
	}
}

func TestControllerMaxVoteRelu(t *testing.T) {
	u := pim.MustNewUnit(testConfig())
	rows := []dbc.Row{
		pim.MustPackLanes([]uint64{5, 200, 17, 44}, 8, 32),
		pim.MustPackLanes([]uint64{100, 3, 80, 44}, 8, 32),
		pim.MustPackLanes([]uint64{7, 7, 7, 7}, 8, 32),
	}
	got, err := dispatch(u, Instruction{Op: OpMax, Blocksize: 8, Operands: 3}, rows)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{100, 200, 80, 44}
	for i, v := range pim.UnpackLanes(got, 8) {
		if v != want[i] {
			t.Fatalf("max lane %d = %d, want %d", i, v, want[i])
		}
	}

	vote, err := dispatch(u, Instruction{Op: OpVote, Blocksize: 8, Operands: 3},
		[]dbc.Row{rows[0], rows[0], rows[1]})
	if err != nil {
		t.Fatal(err)
	}
	if !vote.Equal(rows[0]) {
		t.Fatalf("vote = %v, want %v", vote, rows[0])
	}

	relu, err := dispatch(u, Instruction{Op: OpRelu, Blocksize: 8, Operands: 1},
		[]dbc.Row{pim.MustPackLanes([]uint64{130, 4, 255, 127}, 8, 32)})
	if err != nil {
		t.Fatal(err)
	}
	wantR := []uint64{0, 4, 0, 127}
	for i, v := range pim.UnpackLanes(relu, 8) {
		if v != wantR[i] {
			t.Fatalf("relu lane %d = %d, want %d", i, v, wantR[i])
		}
	}
}

// TestControllerErrors: a kernel without its operand rows, an operand
// count past the TR window and an opcode that bypasses the PIM logic
// all fail. Read, write and nop are data movement; the memory
// controller runs them without Dispatch.
func TestControllerErrors(t *testing.T) {
	u := pim.MustNewUnit(testConfig())
	if _, err := dispatch(u, Instruction{Op: OpAdd, Blocksize: 8, Operands: 2}, nil); err == nil {
		t.Error("missing operands accepted")
	}
	if _, err := dispatch(u, Instruction{Op: OpNot, Blocksize: 8, Operands: 9}, nil); err == nil {
		t.Error("operand overflow accepted")
	}
	for _, op := range []OpCode{OpNop, OpRead, OpWrite} {
		if _, err := dispatch(u, Instruction{Op: op}, nil); err == nil {
			t.Errorf("Dispatch ran %v", op)
		}
	}
}

func randRow(width int, rng *rand.Rand) dbc.Row {
	r := dbc.NewRow(width)
	for i := 0; i < width; i++ {
		r.Set(i, uint8(rng.Intn(2)))
	}
	return r
}
