package isa_test

import (
	"errors"
	"testing"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
)

// arity is a valid operand count for each opcode's kernel.
func arity(op isa.OpCode) int {
	switch op {
	case isa.OpNot, isa.OpRelu, isa.OpShl, isa.OpShr:
		return 1
	case isa.OpFma, isa.OpVote:
		return 3
	}
	return 2
}

// TestPIMOpcodes holds the one PIM-opcode list to its users: over every
// opcode (and one past the last), IsPIM holds exactly when Dispatch runs
// the opcode and exactly when Memory.Execute accepts it. Validate owns
// kernel arity: mult takes two operands, add at least two and at most
// TRD−2 (TRD 7), max at least two, not and relu exactly one, vote a
// degree of 3, 5 or 7 within the TRD, and Validate and Memory.Execute
// both reject every other count. The window limits wrap
// params.ErrBadTRD.
func TestPIMOpcodes(t *testing.T) {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	g := cfg.Geometry
	u, err := pim.NewUnit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := memory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exec := isa.Addr{DBC: g.DBCsPerTile - 1} // a PIM-enabled DBC
	operands := make([]isa.Addr, cfg.TRD)
	rows := make([]dbc.Row, cfg.TRD)
	for i := range rows {
		operands[i] = isa.Addr{Tile: 1, Row: i}
		rows[i] = dbc.NewRow(g.TrackWidth)
	}
	for op := isa.OpNop; op <= isa.OpFma+1; op++ {
		k := arity(op)
		in := isa.Instruction{Op: op, Src: exec, Blocksize: 8, Operands: k}
		_, _, dispatchErr := isa.Dispatch(u, in, rows[:k])
		_, execErr := m.Execute(in, operands[:k], isa.Addr{Tile: 2})
		if pimOp := op.IsPIM(); (dispatchErr == nil) != pimOp || (execErr == nil) != pimOp {
			t.Errorf("%v: IsPIM %v, Dispatch err %v, Memory.Execute err %v", op, pimOp, dispatchErr, execErr)
		}
		if execErr != nil && !errors.Is(execErr, memory.ErrInvalidRequest) {
			t.Errorf("%v: Memory.Execute err %v, want ErrInvalidRequest", op, execErr)
		}
	}

	for _, tc := range []struct {
		in     isa.Instruction
		badTRD bool // the count exceeds what the TR window can do
	}{
		{isa.Instruction{Op: isa.OpMult, Src: exec, Blocksize: 16, Operands: 3}, false},
		{isa.Instruction{Op: isa.OpAdd, Src: exec, Blocksize: 8, Operands: 1}, false},
		{isa.Instruction{Op: isa.OpAdd, Src: exec, Blocksize: 8, Operands: 6}, true},
		{isa.Instruction{Op: isa.OpAdd, Src: exec, Blocksize: 8, Operands: 7}, true},
		{isa.Instruction{Op: isa.OpMax, Src: exec, Blocksize: 8, Operands: 1}, false},
		{isa.Instruction{Op: isa.OpNot, Src: exec, Blocksize: 8, Operands: 2}, false},
		{isa.Instruction{Op: isa.OpRelu, Src: exec, Blocksize: 8, Operands: 2}, false},
		{isa.Instruction{Op: isa.OpVote, Src: exec, Blocksize: 8, Operands: 1}, true},
		{isa.Instruction{Op: isa.OpVote, Src: exec, Blocksize: 8, Operands: 2}, true},
		{isa.Instruction{Op: isa.OpVote, Src: exec, Blocksize: 8, Operands: 4}, true},
		{isa.Instruction{Op: isa.OpVote, Src: exec, Blocksize: 8, Operands: 6}, true},
	} {
		in, k := tc.in, tc.in.Operands
		if err := in.Validate(g, cfg.TRD); err == nil {
			t.Errorf("Validate accepted %v k=%d", in.Op, k)
		} else if errors.Is(err, params.ErrBadTRD) != tc.badTRD {
			t.Errorf("Validate %v k=%d: %v, wraps ErrBadTRD %v, want %v", in.Op, k, err, !tc.badTRD, tc.badTRD)
		}
		if _, err := m.Execute(in, operands[:k], isa.Addr{Tile: 2}); !errors.Is(err, memory.ErrInvalidRequest) {
			t.Errorf("Memory.Execute %v k=%d err = %v, want ErrInvalidRequest", in.Op, k, err)
		}
	}
}
