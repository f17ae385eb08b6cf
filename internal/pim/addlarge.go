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

	rows := make([]dbc.Row, k)
	copy(rows, operands)
	trdN := int(u.cfg.TRD)
	for len(rows) > maxAdd {
		take := min(trdN, len(rows))
		red, err := u.Reduce(rows[:take], blocksize)
		if err != nil {
			return dbc.Row{}, err
		}
		rows = append(red.Rows(), rows[take:]...)
	}
	return u.AddMulti(rows, blocksize)
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
