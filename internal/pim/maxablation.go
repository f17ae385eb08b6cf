package pim

import "repro/internal/dbc"

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
// to stay within the overhead-domain excursion. Placement leaves the
// head k−1 steps right of rest, so the first sweep runs left, toward
// rest and past it: every sweep then stays within TRD−1 of rest, where
// a rightward first sweep at k = TRD would end at 2·TRD−1 and a single
// shift overshoot would push data off the wire.
func (u *Unit) MaxTRFullShift(candidates []dbc.Row, blocksize int) (dbc.Row, error) {
	u.rec.Begin(u.src, "max-fullshift")
	defer u.rec.End(u.src)
	if err := u.checkCandidates(candidates, blocksize); err != nil {
		return dbc.Row{}, err
	}
	u.enterOp()
	defer u.exitOp()
	if err := u.placeWindow(candidates, placement{atRest: true}); err != nil {
		return dbc.Row{}, err
	}

	hit := u.scratchRow()
	row := u.scratchRow()
	from, to, step := dbcLeft, dbcRight, -1
	for j := blocksize - 1; j >= 0; j-- {
		u.senseLaneBit(hit, j, blocksize)
		for r := 0; r < int(u.cfg.TRD); r++ {
			u.D.ReadPortInto(from, row)
			eliminate(row, hit, blocksize)
			if err := u.D.Shift(step); err != nil {
				return dbc.Row{}, err
			}
			u.D.WritePort(to, row)
		}
		from, to, step = to, from, -step
	}

	return dbc.EvalPlanes(dbc.OpOR, u.trAll(), u.cfg.TRD), nil
}
