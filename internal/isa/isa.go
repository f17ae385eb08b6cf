// Package isa implements the CORUSCANT instruction-set extension of
// §III-E: the cpim instruction `cpim src, op, blocksize` that the CPU
// issues to the memory controller, its encoding and assembly syntax,
// the physical address decomposition down to DBC/row granularity, the
// validation of an instruction against a geometry and TR window, and
// Dispatch, the map from each PIM opcode to the kernel that runs it.
// The memory controller that stages operands and runs the kernels is
// internal/memory.
package isa

import (
	"fmt"

	"repro/internal/dbc"
	"repro/internal/params"
	"repro/internal/pim"
)

// OpCode enumerates the cpim operations.
type OpCode int

// cpim opcodes. Read/Write bypass the PIM unit (the orange path of
// Fig. 4(a)).
const (
	OpNop OpCode = iota
	OpRead
	OpWrite
	OpAnd
	OpOr
	OpNand
	OpNor
	OpXor
	OpXnor
	OpNot
	OpAdd
	OpMult
	OpMax
	OpRelu
	OpVote
	// PIRM-style arithmetic extension: restoring division/modulo on the
	// carry chain, variable logical shifts priced as racetrack shifts
	// (XDWM), and fused multiply-add on the Multiply reduction planes.
	OpDiv
	OpMod
	OpShl
	OpShr
	OpFma
)

var opNames = map[OpCode]string{
	OpNop: "nop", OpRead: "read", OpWrite: "write",
	OpAnd: "and", OpOr: "or", OpNand: "nand", OpNor: "nor",
	OpXor: "xor", OpXnor: "xnor", OpNot: "not",
	OpAdd: "add", OpMult: "mult", OpMax: "max", OpRelu: "relu", OpVote: "vote",
	OpDiv: "div", OpMod: "mod", OpShl: "shl", OpShr: "shr", OpFma: "fma",
}

func (o OpCode) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// bulkOp maps a bulk-bitwise opcode to the PIM logic selector.
func (o OpCode) bulkOp() (dbc.Op, bool) {
	switch o {
	case OpAnd:
		return dbc.OpAND, true
	case OpOr:
		return dbc.OpOR, true
	case OpNand:
		return dbc.OpNAND, true
	case OpNor:
		return dbc.OpNOR, true
	case OpXor:
		return dbc.OpXOR, true
	case OpXnor:
		return dbc.OpXNOR, true
	case OpNot:
		return dbc.OpNOT, true
	}
	return 0, false
}

// IsPIM reports whether the opcode runs a kernel on the PIM unit: the
// opcodes Dispatch accepts. Read, write and nop bypass the PIM logic.
func (o OpCode) IsPIM() bool {
	switch o {
	case OpAdd, OpMult, OpMax, OpRelu, OpVote, OpDiv, OpMod, OpShl, OpShr, OpFma:
		return true
	}
	_, bulk := o.bulkOp()
	return bulk
}

// Addr locates a row inside the memory hierarchy of Fig. 2: bank →
// subarray → tile → DBC → row.
type Addr struct {
	Bank, Subarray, Tile, DBC, Row int
}

// AddrRangeError reports one address field outside the configured
// geometry; Max is the exclusive upper bound. Test with errors.As.
type AddrRangeError struct {
	Field string // "bank", "subarray", "tile", "dbc" or "row"
	Value int
	Max   int
}

func (e *AddrRangeError) Error() string {
	return fmt.Sprintf("isa: %s %d outside geometry (want 0..%d)", e.Field, e.Value, e.Max-1)
}

// CheckGeometry validates the address against the geometry, returning a
// typed *AddrRangeError naming the first out-of-range field.
func (a Addr) CheckGeometry(g params.Geometry) error {
	for _, f := range []struct {
		name     string
		val, max int
	}{
		{"bank", a.Bank, g.Banks},
		{"subarray", a.Subarray, g.SubarraysPerBank},
		{"tile", a.Tile, g.TilesPerSubarray},
		{"dbc", a.DBC, g.DBCsPerTile},
		{"row", a.Row, g.RowsPerDBC},
	} {
		if f.val < 0 || f.val >= f.max {
			return &AddrRangeError{Field: f.name, Value: f.val, Max: f.max}
		}
	}
	return nil
}

// Valid reports whether the address is inside the geometry.
func (a Addr) Valid(g params.Geometry) bool { return a.CheckGeometry(g) == nil }

// Linear returns the flat row index of the address (row-interleaved
// within DBC, DBC within tile, and so on).
func (a Addr) Linear(g params.Geometry) int64 {
	n := int64(a.Bank)
	n = n*int64(g.SubarraysPerBank) + int64(a.Subarray)
	n = n*int64(g.TilesPerSubarray) + int64(a.Tile)
	n = n*int64(g.DBCsPerTile) + int64(a.DBC)
	n = n*int64(g.RowsPerDBC) + int64(a.Row)
	return n
}

// AddrOfLinear decomposes a flat row index.
func AddrOfLinear(n int64, g params.Geometry) Addr {
	var a Addr
	a.Row = int(n % int64(g.RowsPerDBC))
	n /= int64(g.RowsPerDBC)
	a.DBC = int(n % int64(g.DBCsPerTile))
	n /= int64(g.DBCsPerTile)
	a.Tile = int(n % int64(g.TilesPerSubarray))
	n /= int64(g.TilesPerSubarray)
	a.Subarray = int(n % int64(g.SubarraysPerBank))
	n /= int64(g.SubarraysPerBank)
	a.Bank = int(n)
	return a
}

// IsPIMEnabled reports whether the address falls in a PIM-enabled
// tile/DBC (§III-A: one PIM tile per subarray, the last DBC of it).
func (a Addr) IsPIMEnabled(g params.Geometry) bool {
	return a.Tile < g.PIMTilesPerSub && a.DBC >= g.DBCsPerTile-g.PIMDBCsPerTile
}

// Instruction is one cpim operation (§III-E): the source address names
// the DBC and the nanowire position to align with the leftmost access
// port; op and blocksize program the multiplexer select bits.
type Instruction struct {
	Op        OpCode
	Src       Addr
	Blocksize int
	Operands  int // operand cardinality k (padded to TRD as needed)
	Imm       int // shift amount for shl/shr (0..Blocksize); zero otherwise
}

// Validate reports instruction encoding errors, kernel arity included:
// an add with more operands than the TR window adds at once and a vote
// whose degree the window cannot vote wrap params.ErrBadTRD, so memory
// rejects them before it stages any operand.
func (in Instruction) Validate(g params.Geometry, trd params.TRD) error {
	if err := in.Src.CheckGeometry(g); err != nil {
		return err
	}
	switch in.Op {
	case OpRead, OpWrite, OpNop:
		return nil
	}
	if !params.ValidBlockSize(in.Blocksize) {
		return fmt.Errorf("isa: invalid blocksize %d", in.Blocksize)
	}
	if in.Operands < 1 || in.Operands > trd.MaxBulkOperands() {
		return fmt.Errorf("isa: operand count %d out of range for %v: %w", in.Operands, trd, params.ErrBadTRD)
	}
	switch in.Op {
	case OpShl, OpShr:
		if in.Operands != 1 {
			return fmt.Errorf("isa: %v expects 1 operand, got %d", in.Op, in.Operands)
		}
		if in.Imm < 0 || in.Imm > in.Blocksize {
			return fmt.Errorf("isa: shift amount %d outside 0..%d", in.Imm, in.Blocksize)
		}
		return nil
	case OpNot, OpRelu:
		if in.Operands != 1 {
			return fmt.Errorf("isa: %v expects 1 operand, got %d", in.Op, in.Operands)
		}
	case OpAdd, OpMax:
		if in.Operands < 2 {
			return fmt.Errorf("isa: %v expects at least 2 operands, got %d", in.Op, in.Operands)
		}
		if max := trd.MaxAddOperands(); in.Op == OpAdd && in.Operands > max {
			return fmt.Errorf("isa: add with %d operands exceeds limit %d for %v: %w", in.Operands, max, trd, params.ErrBadTRD)
		}
	case OpVote:
		if !trd.ValidNMR(in.Operands) {
			return fmt.Errorf("isa: unsupported redundancy degree %d for %v: %w", in.Operands, trd, params.ErrBadTRD)
		}
	case OpMult, OpDiv, OpMod:
		if in.Operands != 2 {
			return fmt.Errorf("isa: %v expects 2 operands, got %d", in.Op, in.Operands)
		}
	case OpFma:
		if in.Operands != 3 {
			return fmt.Errorf("isa: fma expects 3 operands, got %d", in.Operands)
		}
	}
	if in.Imm != 0 {
		return fmt.Errorf("isa: %v takes no immediate, got %d", in.Op, in.Imm)
	}
	return nil
}

func (in Instruction) String() string {
	return fmt.Sprintf("cpim %v bank%d.sub%d.tile%d.dbc%d.row%d, bs=%d, k=%d",
		in.Op, in.Src.Bank, in.Src.Subarray, in.Src.Tile, in.Src.DBC, in.Src.Row,
		in.Blocksize, in.Operands)
}

// Dispatch runs one PIM opcode on the unit over operand rows already
// staged for it, returning the result row: the one opcode-to-kernel
// mapping memory.Memory, its kernel cost table and pimasm exec share.
// max picks its kernel by candidate count: exactly two run the
// carry-chain compare-select (pim.MaxSelect), which costs fewer cycles
// and less energy at every blocksize and TRD; 3..TRD run the TW
// tournament (pim.MaxTR). The DivMod kernel computes the quotient and
// the remainder in one run, so for div Dispatch also hands back the
// remainder in rem; for every other opcode rem is the zero Row. It
// rejects opcodes that are not IsPIM and validates nothing beyond what
// the kernels check. Every kernel rewrites the DBC window from the
// operand rows, so a call can be replayed verbatim.
func Dispatch(u *pim.Unit, in Instruction, operands []dbc.Row) (res, rem dbc.Row, err error) {
	if !in.Op.IsPIM() {
		return dbc.Row{}, dbc.Row{}, fmt.Errorf("isa: opcode %v is not a PIM operation", in.Op)
	}
	switch in.Op {
	case OpAdd:
		res, err = u.AddMulti(operands, in.Blocksize)
	case OpMult:
		res, err = u.Multiply(operands[0], operands[1], in.Blocksize/2)
	case OpMax:
		if len(operands) == 2 {
			res, err = u.MaxSelect(operands[0], operands[1], in.Blocksize)
		} else {
			res, err = u.MaxTR(operands, in.Blocksize)
		}
	case OpRelu:
		res, err = u.ReLU(operands[0], in.Blocksize)
	case OpVote:
		res, err = u.Vote(operands)
	case OpDiv:
		return u.DivMod(operands[0], operands[1], in.Blocksize)
	case OpMod:
		_, res, err = u.DivMod(operands[0], operands[1], in.Blocksize)
	case OpShl:
		res, err = u.LogicalShift(operands[0], in.Imm, in.Blocksize, true)
	case OpShr:
		res, err = u.LogicalShift(operands[0], in.Imm, in.Blocksize, false)
	case OpFma:
		res, err = u.FMA(operands[0], operands[1], operands[2], in.Blocksize/2)
	default:
		op, _ := in.Op.bulkOp()
		res, err = u.BulkBitwise(op, operands)
	}
	return res, dbc.Row{}, err
}
