package pim

import (
	"fmt"

	"repro/internal/dbc"
	"repro/internal/params"
)

// MaxTRFullShift computes the same lane-wise maximum as MaxTR but
// rotates the candidates with whole-nanowire shifts instead of the
// transverse write's segmented shift: each candidate costs a read, a
// domain-wall shift, and a write (§IV-B: "each word is read from the
// right and re-written to the left access point, while shifting in
// between"). It exists as the ablation baseline for the paper's claim
// that TW reduces maximum-function cycles by 28.5%.
//
// Whole-nanowire shifting drifts the DBC alignment — the very problem
// §IV-B raises — so the rotation direction alternates per bit position
// to stay within the overhead-domain excursion.
func (u *Unit) MaxTRFullShift(candidates []dbc.Row, blocksize int) (dbc.Row, error) {
	k := len(candidates)
	if k < 2 {
		return dbc.Row{}, fmt.Errorf("pim: max needs at least 2 candidates, got %d", k)
	}
	if k > u.cfg.TRD.MaxBulkOperands() {
		return dbc.Row{}, fmt.Errorf("pim: max with %d candidates exceeds TRD %d: %w", k, int(u.cfg.TRD), params.ErrBadTRD)
	}
	if err := u.checkBlocksize(blocksize); err != nil {
		return dbc.Row{}, err
	}
	width := u.D.Width()
	for _, r := range candidates {
		if r.N != width {
			return dbc.Row{}, fmt.Errorf("pim: candidate width %d, want %d", r.N, width)
		}
	}
	if err := u.placeWindow(candidates, placement{atRest: true}); err != nil {
		return dbc.Row{}, err
	}

	trd := int(u.cfg.TRD)
	lanes := width / blocksize
	rightward := true
	for j := blocksize - 1; j >= 0; j-- {
		wires := make([]int, lanes)
		for l := 0; l < lanes; l++ {
			wires[l] = l*blocksize + j
		}
		levels, err := u.D.TRWires(wires)
		if err != nil {
			return dbc.Row{}, err
		}
		for r := 0; r < trd; r++ {
			var row dbc.Row
			if rightward {
				row = u.D.ReadPort(dbcRight)
			} else {
				row = u.D.ReadPort(dbcLeft)
			}
			for l := 0; l < lanes; l++ {
				w := l*blocksize + j
				if levels[w] > 0 && row.Get(w) == 0 {
					zeroLane(row, l, blocksize)
				}
			}
			if rightward {
				if err := u.D.Shift(1); err != nil {
					return dbc.Row{}, err
				}
				u.D.WritePort(dbcLeft, row)
			} else {
				if err := u.D.Shift(-1); err != nil {
					return dbc.Row{}, err
				}
				u.D.WritePort(dbcRight, row)
			}
		}
		rightward = !rightward
	}

	return dbc.EvalPlanes(dbc.OpOR, u.trAll(), u.cfg.TRD), nil
}
