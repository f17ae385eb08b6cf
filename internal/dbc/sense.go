package dbc

import (
	"fmt"

	"repro/internal/params"
)

// Op is a bulk-bitwise operation computable by the PIM logic block from a
// transverse-read level (Fig. 4(b), §III-B).
type Op int

// Supported polymorphic-gate operations.
const (
	OpOR Op = iota
	OpNOR
	OpAND
	OpNAND
	OpXOR
	OpXNOR
	OpNOT // NOR of a single operand padded with zeros
	OpMAJ // majority: the C' circuit reused for N-modular voting (§III-F)
)

var opNames = map[Op]string{
	OpOR: "OR", OpNOR: "NOR", OpAND: "AND", OpNAND: "NAND",
	OpXOR: "XOR", OpXNOR: "XNOR", OpNOT: "NOT", OpMAJ: "MAJ",
}

func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// PadBit returns the padding constant that makes the operation correct
// for fewer than TRD operands (Fig. 7): '1's for AND/NAND, '0's for the
// rest.
func (o Op) PadBit() uint8 {
	if o == OpAND || o == OpNAND {
		return 1
	}
	return 0
}

// PIMOutputs is the full output set of the PIM logic block for one
// nanowire's sensed level (Fig. 4(b)). With Sense and Eval it is the
// scalar specification of that block: kernels evaluate the level planes
// word-parallel (EvalPlanes, the carry chain), and tests hold those to
// this reference.
type PIMOutputs struct {
	OR, NOR, AND, NAND, XOR, XNOR uint8
	S                             uint8 // sum: identical to XOR (level bit 0)
	C                             uint8 // carry: level bit 1 ("above two and not above four, or above six")
	Cp                            uint8 // super-carry: level bit 2 ("above four"); also the majority output
}

// Sense evaluates the PIM logic block for a sensed level in [0, trd].
// The level's binary decomposition yields S/C/C' directly: a count of at
// most 7 fits in three bits. It is the scalar reference; no kernel
// calls it.
func Sense(level int, trd params.TRD) PIMOutputs {
	if level < 0 || level > int(trd) {
		panic(fmt.Sprintf("dbc: level %d out of range [0,%d]", level, int(trd)))
	}
	var o PIMOutputs
	o.S = uint8(level & 1)
	o.XOR = o.S
	o.XNOR = 1 - o.XOR
	o.C = uint8((level >> 1) & 1)
	o.Cp = uint8((level >> 2) & 1)
	if level >= 1 {
		o.OR = 1
	}
	o.NOR = 1 - o.OR
	if level == int(trd) {
		o.AND = 1
	}
	o.NAND = 1 - o.AND
	return o
}

// Eval returns the single-bit result of op for a sensed level, assuming
// the window was padded per Fig. 7 when fewer than TRD operands are used.
// For OpMAJ the level must include the Fig. 7(c)/(d) vote padding so that
// the C' threshold (level ≥ 4) realizes the majority of the replicas.
// It is the scalar reference EvalPlanes is tested against.
func Eval(op Op, level int, trd params.TRD) uint8 {
	o := Sense(level, trd)
	switch op {
	case OpOR:
		return o.OR
	case OpNOR, OpNOT:
		return o.NOR
	case OpAND:
		return o.AND
	case OpNAND:
		return o.NAND
	case OpXOR:
		return o.XOR
	case OpXNOR:
		return o.XNOR
	case OpMAJ:
		// Majority over the full window: level ≥ ceil(TRD/2). For
		// TRD=7 this is the C' circuit (level ≥ 4, §III-F); smaller
		// windows use the corresponding SA threshold output directly.
		if level >= (int(trd)+1)/2 {
			return 1
		}
		return 0
	default:
		panic(fmt.Sprintf("dbc: unknown op %v", op))
	}
}

// EvalPlanes computes the single-bit result of op for every wire at once
// from the bit-sliced level planes of a transverse read — the
// word-parallel equivalent of calling Eval per wire. 64 wires are
// evaluated per handful of bitwise word operations.
func EvalPlanes(op Op, lp LevelPlanes, trd params.TRD) Row {
	out := NewRow(lp.N)
	EvalPlanesInto(out, op, lp, trd)
	return out
}

// EvalPlanesInto is EvalPlanes writing into a caller-owned row of the
// planes' width, for hot paths that evaluate into scratch words.
func EvalPlanesInto(out Row, op Op, lp LevelPlanes, trd params.TRD) {
	for i := range out.Words {
		var v uint64
		switch op {
		case OpOR:
			v = lp.C0[i] | lp.C1[i] | lp.C2[i]
		case OpNOR, OpNOT:
			v = ^(lp.C0[i] | lp.C1[i] | lp.C2[i])
		case OpAND:
			v = levelEQ(lp.C0[i], lp.C1[i], lp.C2[i], int(trd))
		case OpNAND:
			v = ^levelEQ(lp.C0[i], lp.C1[i], lp.C2[i], int(trd))
		case OpXOR:
			v = lp.C0[i]
		case OpXNOR:
			v = ^lp.C0[i]
		case OpMAJ:
			v = levelGE(lp.C0[i], lp.C1[i], lp.C2[i], (int(trd)+1)/2)
		default:
			panic(fmt.Sprintf("dbc: unknown op %v", op))
		}
		out.Words[i] = v
	}
	out.MaskTail()
}

// levelEQ returns the mask of lanes whose 3-bit level equals t.
func levelEQ(c0, c1, c2 uint64, t int) uint64 {
	t0, t1, t2 := broadcast(t&1), broadcast(t>>1&1), broadcast(t>>2&1)
	return ^(c0 ^ t0) & ^(c1 ^ t1) & ^(c2 ^ t2)
}

// levelGE returns the mask of lanes whose 3-bit level is at least t,
// via a bit-sliced lexicographic comparison from the MSB down.
func levelGE(c0, c1, c2 uint64, t int) uint64 {
	t0, t1, t2 := broadcast(t&1), broadcast(t>>1&1), broadcast(t>>2&1)
	gt := c2 &^ t2
	eq := ^(c2 ^ t2)
	gt |= eq & (c1 &^ t1)
	eq &= ^(c1 ^ t1)
	gt |= eq & (c0 &^ t0)
	eq &= ^(c0 ^ t0)
	return gt | eq
}

// broadcast replicates a single bit across a word.
func broadcast(b int) uint64 {
	if b != 0 {
		return ^uint64(0)
	}
	return 0
}
