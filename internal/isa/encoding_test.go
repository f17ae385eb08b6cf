package isa

import (
	"testing"
	"testing/quick"

	"repro/internal/dbc"
	"repro/internal/params"
	"repro/internal/pim"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g := params.DefaultGeometry()
	check := func(op, bank, sub, tile, dbcIdx, row, bs, k uint8) bool {
		in := Instruction{
			Op: OpCode(int(op)%int(OpVote) + 1),
			Src: Addr{
				Bank:     int(bank) % g.Banks,
				Subarray: int(sub) % g.SubarraysPerBank,
				Tile:     int(tile) % g.TilesPerSubarray,
				DBC:      int(dbcIdx) % g.DBCsPerTile,
				Row:      int(row) % g.RowsPerDBC,
			},
			Blocksize: params.BlockSizes[int(bs)%len(params.BlockSizes)],
			Operands:  int(k)%7 + 1,
		}
		word, err := in.Encode(g, params.TRD7)
		if err != nil {
			return true // invalid combinations are allowed to refuse
		}
		got := Decode(word)
		if in.Op == OpRead || in.Op == OpWrite {
			// Bypass ops carry no meaningful blocksize/operands.
			return got.Op == in.Op && got.Src == in.Src
		}
		return got == in
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncodeKnownWord(t *testing.T) {
	g := params.DefaultGeometry()
	in := Instruction{Op: OpAdd, Src: Addr{Bank: 3, Row: 7}, Blocksize: 32, Operands: 5}
	word, err := in.Encode(g, params.TRD7)
	if err != nil {
		t.Fatal(err)
	}
	got := Decode(word)
	if got != in {
		t.Errorf("decode = %+v, want %+v", got, in)
	}
	// Reserved bits must stay clear (46 bits of payload since the
	// 5-bit opcode and the immediate field landed).
	if word>>46 != 0 {
		t.Errorf("reserved bits set: %#x", word)
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	g := params.DefaultGeometry()
	bad := Instruction{Op: OpAdd, Src: Addr{Bank: 99}, Blocksize: 8, Operands: 2}
	if _, err := bad.Encode(g, params.TRD7); err == nil {
		t.Error("invalid address encoded")
	}
	bad = Instruction{Op: OpAdd, Blocksize: 24, Operands: 2}
	if _, err := bad.Encode(g, params.TRD7); err == nil {
		t.Error("invalid blocksize encoded")
	}
}

// TestEncodeControllerIntegration: a word travels CPU → controller:
// encode, decode, then validate and dispatch.
func TestEncodeControllerIntegration(t *testing.T) {
	g := params.DefaultGeometry()
	cfg := testConfig()
	u := pim.MustNewUnit(cfg)
	in := Instruction{Op: OpXor, Blocksize: 8, Operands: 2}
	word, err := in.Encode(g, cfg.TRD)
	if err != nil {
		t.Fatal(err)
	}
	decoded := Decode(word)
	a := dbc.NewRow(32)
	b := dbc.NewRow(32)
	a.Set(3, 1)
	b.Set(3, 1)
	a.Set(7, 1)
	got, err := dispatch(u, decoded, []dbc.Row{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got.Get(3) != 0 || got.Get(7) != 1 {
		t.Errorf("decoded XOR wrong: %v", got)
	}
}
