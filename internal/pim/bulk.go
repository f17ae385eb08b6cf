package pim

import (
	"fmt"

	"repro/internal/dbc"
	"repro/internal/params"
)

// bulkSpans names each gate's bulk span, built once so BulkBitwise
// formats no string per call.
var bulkSpans = func() (names [dbc.OpMAJ + 1]string) {
	for op := range names {
		names[op] = "bulk-" + dbc.Op(op).String()
	}
	return names
}()

// bulkSpan returns the span name of a bulk gate.
func bulkSpan(op dbc.Op) string {
	if op >= 0 && int(op) < len(bulkSpans) {
		return bulkSpans[op]
	}
	return "bulk-" + op.String()
}

// BulkBitwise computes a k-operand bulk-bitwise operation in a single
// transverse read (§III-B, Fig. 5). Up to TRD operand rows are combined;
// unused window slots carry the Fig. 7 padding constant so smaller
// cardinalities remain correct. The result is written back through the
// left port (one write step), as the paper stores it over an operand or
// in a separate DBC, and is also returned.
//
// The whole operation is word-parallel: the transverse read yields
// bit-sliced level planes and the polymorphic gate is evaluated 64 wires
// per word operation (dbc.EvalPlanes).
func (u *Unit) BulkBitwise(op dbc.Op, operands []dbc.Row) (dbc.Row, error) {
	u.rec.Begin(u.src, bulkSpan(op))
	defer u.rec.End(u.src)
	k := len(operands)
	if k == 0 {
		return dbc.Row{}, fmt.Errorf("pim: bulk %v with no operands", op)
	}
	if k > u.cfg.TRD.MaxBulkOperands() {
		return dbc.Row{}, fmt.Errorf("pim: bulk %v with %d operands exceeds TRD %d: %w", op, k, int(u.cfg.TRD), params.ErrBadTRD)
	}
	if op == dbc.OpNOT && k != 1 {
		return dbc.Row{}, fmt.Errorf("pim: NOT takes exactly one operand, got %d", k)
	}
	for _, r := range operands {
		if r.N != u.D.Width() {
			return dbc.Row{}, fmt.Errorf("pim: operand width %d, want %d", r.N, u.D.Width())
		}
	}
	if err := u.placeWindow(operands, placement{pad: op.PadBit(), finalShift: true}); err != nil {
		return dbc.Row{}, err
	}
	out := dbc.EvalPlanes(op, u.trAll(), u.cfg.TRD)
	u.D.WritePort(dbcLeft, out)
	return out, nil
}
