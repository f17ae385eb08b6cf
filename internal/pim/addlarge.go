package pim

import (
	"fmt"

	"repro/internal/dbc"
)

// AddLarge adds an arbitrary number of operand rows lane-wise — the
// "large cardinality additions found in many scientific and machine
// learning algorithms" of §III-D3. Operands beyond the window's
// single-addition capacity are first compressed with TRD→3 carry-save
// reduction rounds (each O(1) regardless of lane width), and a single
// multi-operand addition finishes the job. Complexity is O(k) reduction
// rounds for k operands plus one blocksize-cycle carry chain, versus
// O(k·blocksize) for chained additions.
//
// Each round places up to TRD rows at rest and reduces them with
// reducePlaced under a "reduce" span, as Reduce does; its outputs stay
// on the scratch arena and take the consumed rows' place in the list.
func (u *Unit) AddLarge(operands []dbc.Row, blocksize int) (dbc.Row, error) {
	u.rec.Begin(u.src, "add-large")
	defer u.rec.End(u.src)
	k := len(operands)
	if k == 0 {
		return dbc.Row{}, fmt.Errorf("pim: large add with no operands")
	}
	if err := u.checkBlocksize(blocksize); err != nil {
		return dbc.Row{}, err
	}
	width := u.D.Width()
	for _, r := range operands {
		if r.N != width {
			return dbc.Row{}, fmt.Errorf("pim: operand width %d, want %d", r.N, width)
		}
	}
	if k == 1 {
		return copyRow(operands[0]), nil
	}
	maxAdd := u.maxAddOperands()
	if k <= maxAdd {
		return u.AddMulti(operands, blocksize)
	}

	u.enterOp()
	defer u.exitOp()
	rows := append(u.scratchRowList(k), operands...)
	trdN := int(u.cfg.TRD)
	for len(rows) > maxAdd {
		take := min(trdN, len(rows))
		red, err := u.reduceRound(rows[:take], blocksize)
		if err != nil {
			return dbc.Row{}, err
		}
		rows = splice(rows, take, red)
	}
	return u.AddMulti(rows, blocksize)
}

// reduceRound is one of AddLarge's reduction rounds, in its own
// "reduce" span: the rows placed at rest, then reducePlaced.
func (u *Unit) reduceRound(rows []dbc.Row, blocksize int) (Reduction, error) {
	u.rec.Begin(u.src, "reduce")
	defer u.rec.End(u.src)
	if err := u.placeWindow(rows, placement{atRest: true}); err != nil {
		return Reduction{}, err
	}
	return u.reducePlaced(blocksize), nil
}

// AddChained adds the operands with sequential multi-operand additions
// (no carry-save reductions) — the baseline AddLarge is measured
// against in the ablation benchmarks. Functionally identical.
func (u *Unit) AddChained(operands []dbc.Row, blocksize int) (dbc.Row, error) {
	u.rec.Begin(u.src, "add-chained")
	defer u.rec.End(u.src)
	k := len(operands)
	if k == 0 {
		return dbc.Row{}, fmt.Errorf("pim: chained add with no operands")
	}
	if k == 1 {
		return copyRow(operands[0]), nil
	}
	maxAdd := u.maxAddOperands()
	acc := operands[0]
	rest := operands[1:]
	for len(rest) > 0 {
		take := min(maxAdd-1, len(rest))
		group := append([]dbc.Row{acc}, rest[:take]...)
		var err error
		acc, err = u.AddMulti(group, blocksize)
		if err != nil {
			return dbc.Row{}, err
		}
		rest = rest[take:]
	}
	return acc, nil
}
