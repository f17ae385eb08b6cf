// Package elp2im models ELP²IM [4], the fastest published DRAM PIM at
// the time of the paper: instead of cloning operands like Ambit, it
// manipulates the sense amplifier's pseudo-precharge state so logic
// happens in place, reaching a 3.2× speedup over Ambit on bulk bitwise
// operations (§II-C1).
//
// Functionally its operations match Ambit's (bitwise logic over rows);
// only the costs differ, so the functional helpers delegate to the same
// reference semantics.
package elp2im

import (
	"repro/internal/baseline/ambit"
	"repro/internal/params"
	"repro/internal/trace"
)

// Row is a bulk-bitwise operand.
type Row = ambit.Row

// And computes a AND b (same result semantics as Ambit, in-place state
// manipulation in hardware).
func And(a, b Row) Row { return ambit.And(a, b) }

// Or computes a OR b.
func Or(a, b Row) Row { return ambit.Or(a, b) }

// Xor computes a XOR b.
func Xor(a, b Row) Row { return ambit.Xor(a, b) }

// AndMulti reduces k operands with sequential two-operand ANDs.
func AndMulti(ops []Row) (Row, error) { return ambit.AndMulti(ops) }

// Model is the ELP²IM cost model.
type Model struct {
	T params.DDRTimings
	E params.Energy
}

// NewModel returns the Table II DRAM cost model.
func NewModel(cfg params.Config) Model {
	return Model{T: cfg.Timing.DRAM, E: cfg.Energy}
}

// opCost is one in-place bulk operation: a single activation plus two
// pseudo-precharge phases — 3.2× faster than Ambit's four AAPs.
func (m Model) opCost(n int) trace.Cost {
	ambitAnd := 4 * (2*m.T.TRAS + m.T.TRP)
	cyc := int(float64(ambitAnd)/3.2) + 1
	return trace.Cost{
		Cycles:   n * cyc,
		EnergyPJ: float64(n) * 1.2 * m.E.DRAMRowActPJ,
	}
}

// And2 returns the cost of one row-wide two-operand AND.
func (m Model) And2() trace.Cost { return m.opCost(1) }

// Xor2 returns the cost of a row-wide XOR (two pseudo-precharge ops).
func (m Model) Xor2() trace.Cost { return m.opCost(2) }

// AndMulti returns the cost of reducing k operands by sequential ANDs.
func (m Model) AndMulti(k int) trace.Cost { return m.And2().Scale(k - 1) }

// AddStep returns one row-wide two-operand addition step: the G/P/C/S
// carry-lookahead recipe of Eq. 3, 40 cycles (§IV-A).
func (m Model) AddStep() trace.Cost {
	return trace.Cost{Cycles: 40, EnergyPJ: 6 * m.E.DRAMRowActPJ}
}
