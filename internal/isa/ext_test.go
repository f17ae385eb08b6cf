package isa

import (
	"errors"
	"testing"

	"repro/internal/dbc"
	"repro/internal/params"
	"repro/internal/pim"
)

// TestParseGeometryValidation checks that a parsed instruction's
// out-of-range address fails Addr.CheckGeometry with a typed
// *AddrRangeError naming the field.
func TestParseGeometryValidation(t *testing.T) {
	g := params.DefaultGeometry()
	cases := []struct {
		src   string
		field string
	}{
		{"add b99.s0.t0.d0.r0 bs=8 k=2", "bank"},
		{"add b0.s999.t0.d0.r0 bs=8 k=2", "subarray"},
		{"add b0.s0.t99.d0.r0 bs=8 k=2", "tile"},
		{"add b0.s0.t0.d99.r0 bs=8 k=2", "dbc"},
		{"add b0.s0.t0.d0.r99 bs=8 k=2", "row"},
		{"add b-1.s0.t0.d0.r0 bs=8 k=2", "bank"},
	}
	parseIn := func(src string) error {
		in, err := ParseInstruction(src)
		if err != nil {
			return err
		}
		return in.Src.CheckGeometry(g)
	}
	for _, tc := range cases {
		err := parseIn(tc.src)
		var re *AddrRangeError
		if !errors.As(err, &re) {
			t.Errorf("%q: got %v, want *AddrRangeError", tc.src, err)
			continue
		}
		if re.Field != tc.field {
			t.Errorf("%q: flagged field %q, want %q", tc.src, re.Field, tc.field)
		}
	}
	if err := parseIn("add b2.s10.t0.d15.r0 bs=8 k=3"); err != nil {
		t.Errorf("in-range address rejected: %v", err)
	}
}

// TestControllerNewOps drives the PIRM extension opcodes through
// Dispatch and checks values against native arithmetic. One div run
// returns both the quotient and the remainder.
func TestControllerNewOps(t *testing.T) {
	cfg := testConfig()
	u := pim.MustNewUnit(cfg)
	width := u.Width()
	src := Addr{Tile: 0, DBC: cfg.Geometry.DBCsPerTile - 1}
	a := pim.MustPackLanes([]uint64{200, 77, 5, 0}, 8, width)
	d := pim.MustPackLanes([]uint64{7, 0, 9, 3}, 8, width)

	q, rem, err := Dispatch(u, Instruction{Op: OpDiv, Src: src, Blocksize: 8, Operands: 2}, []dbc.Row{a, d})
	if err != nil {
		t.Fatal(err)
	}
	r, err := dispatch(u, Instruction{Op: OpMod, Src: src, Blocksize: 8, Operands: 2}, []dbc.Row{a, d})
	if err != nil {
		t.Fatal(err)
	}
	if !rem.Equal(r) {
		t.Errorf("div remainder %v, mod %v", pim.UnpackLanes(rem, 8), pim.UnpackLanes(r, 8))
	}
	qs := pim.UnpackLanes(q, 8)
	rs := pim.UnpackLanes(r, 8)
	wantQ := []uint64{200 / 7, 255, 0, 0}
	wantR := []uint64{200 % 7, 77, 5, 0}
	for l := 0; l < 4; l++ {
		if qs[l] != wantQ[l] || rs[l] != wantR[l] {
			t.Errorf("lane %d: div/mod = %d,%d want %d,%d", l, qs[l], rs[l], wantQ[l], wantR[l])
		}
	}

	sh, err := dispatch(u, Instruction{Op: OpShl, Src: src, Blocksize: 8, Operands: 1, Imm: 3}, []dbc.Row{a})
	if err != nil {
		t.Fatal(err)
	}
	if got := pim.UnpackLanes(sh, 8)[0]; got != (200<<3)&0xFF {
		t.Errorf("shl: %d, want %d", got, (200<<3)&0xFF)
	}
	sh, err = dispatch(u, Instruction{Op: OpShr, Src: src, Blocksize: 8, Operands: 1, Imm: 2}, []dbc.Row{a})
	if err != nil {
		t.Fatal(err)
	}
	if got := pim.UnpackLanes(sh, 8)[0]; got != 200>>2 {
		t.Errorf("shr: %d, want %d", got, 200>>2)
	}

	fa := pim.MustPackLanes([]uint64{13, 9}, 16, width)
	fb := pim.MustPackLanes([]uint64{7, 200}, 16, width)
	fc := pim.MustPackLanes([]uint64{1000, 60000}, 16, width)
	fr, err := dispatch(u, Instruction{Op: OpFma, Src: src, Blocksize: 16, Operands: 3}, []dbc.Row{fa, fb, fc})
	if err != nil {
		t.Fatal(err)
	}
	fs := pim.UnpackLanes(fr, 16)
	if fs[0] != 13*7+1000 || fs[1] != (9*200+60000)&0xFFFF {
		t.Errorf("fma: %v", fs[:2])
	}
}

// TestValidateNewOps pins the operand-cardinality and immediate rules
// of the extension opcodes.
func TestValidateNewOps(t *testing.T) {
	g := params.DefaultGeometry()
	trd := params.TRD7
	ok := Addr{DBC: 15}
	for _, tc := range []struct {
		in   Instruction
		good bool
	}{
		{Instruction{Op: OpDiv, Src: ok, Blocksize: 8, Operands: 2}, true},
		{Instruction{Op: OpDiv, Src: ok, Blocksize: 8, Operands: 3}, false},
		{Instruction{Op: OpMod, Src: ok, Blocksize: 8, Operands: 1}, false},
		{Instruction{Op: OpShl, Src: ok, Blocksize: 8, Operands: 1, Imm: 8}, true},
		{Instruction{Op: OpShl, Src: ok, Blocksize: 8, Operands: 1, Imm: 9}, false},
		{Instruction{Op: OpShr, Src: ok, Blocksize: 8, Operands: 2, Imm: 1}, false},
		{Instruction{Op: OpFma, Src: ok, Blocksize: 16, Operands: 3}, true},
		{Instruction{Op: OpFma, Src: ok, Blocksize: 16, Operands: 2}, false},
		{Instruction{Op: OpAdd, Src: ok, Blocksize: 8, Operands: 2, Imm: 3}, false},
	} {
		err := tc.in.Validate(g, trd)
		if tc.good && err != nil {
			t.Errorf("%+v rejected: %v", tc.in, err)
		}
		if !tc.good && err == nil {
			t.Errorf("%+v accepted", tc.in)
		}
	}
}

// TestEncodeDecodeNewOps round-trips the extension opcodes, including
// the immediate field, through the widened binary encoding.
func TestEncodeDecodeNewOps(t *testing.T) {
	g := params.DefaultGeometry()
	for _, in := range []Instruction{
		{Op: OpDiv, Src: Addr{Bank: 3, DBC: 15, Row: 7}, Blocksize: 16, Operands: 2},
		{Op: OpMod, Src: Addr{DBC: 15}, Blocksize: 8, Operands: 2},
		{Op: OpShl, Src: Addr{DBC: 15}, Blocksize: 512, Operands: 1, Imm: 512},
		{Op: OpShr, Src: Addr{DBC: 15}, Blocksize: 8, Operands: 1, Imm: 3},
		{Op: OpFma, Src: Addr{Bank: 31, Subarray: 63, DBC: 15}, Blocksize: 64, Operands: 3},
	} {
		word, err := in.Encode(g, params.TRD7)
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if got := Decode(word); got != in {
			t.Errorf("decode = %+v, want %+v", got, in)
		}
	}
}
